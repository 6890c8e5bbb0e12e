"""Profit analysis (§III-D): pool polling and USD conversion.

Every extracted identifier is queried against every transparent pool (a
wallet can mine at several pools, so the paper queries "all the wallets
against all the pools").  Dated payments are converted at the day's
exchange rate; undated totals fall back to the 54 USD/XMR average.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import PoolError
from repro.common.simtime import Date
from repro.core.records import WalletRecord
from repro.market.rates import RATES, ExchangeRates
from repro.pools.directory import PoolDirectory
from repro.pools.pool import Transparency


@dataclass
class WalletProfile:
    """All mining activity observed for one identifier across pools."""

    identifier: str
    records: List[WalletRecord] = field(default_factory=list)

    @property
    def total_paid(self) -> float:
        """Total XMR paid (XMR-denominated pool records only)."""
        return sum(r.total_paid for r in self.records if r.coin == "XMR")

    def total_paid_in(self, coin: str) -> float:
        """Total paid in one coin across this wallet's pool records."""
        return sum(r.total_paid for r in self.records if r.coin == coin)

    @property
    def total_usd(self) -> float:
        return sum(r.usd for r in self.records)

    @property
    def pools(self) -> List[str]:
        return [r.pool for r in self.records]

    @property
    def num_payments(self) -> int:
        return sum(r.num_payments for r in self.records)

    @property
    def last_share(self) -> Optional[Date]:
        dates = [r.last_share for r in self.records if r.last_share]
        return max(dates) if dates else None

    def payments(self) -> List[Tuple[Date, float, str]]:
        """(date, amount, pool) for every dated payment."""
        out = []
        for record in self.records:
            for when, amount in record.payments:
                out.append((when, amount, record.pool))
        out.sort(key=lambda t: t[0])
        return out

    @property
    def active(self) -> bool:
        """Mined within the final month of the polling window."""
        import datetime
        last = self.last_share
        return last is not None and last >= datetime.date(2019, 4, 1)


class ProfitAnalyzer:
    """Polls pool APIs for wallet activity and computes USD values."""

    def __init__(self, pools: PoolDirectory,
                 rates: Optional[Dict[str, ExchangeRates]] = None,
                 query_date: Optional[Date] = None) -> None:
        self._pools = pools
        self._rates = rates or RATES
        self._query_date = query_date

    def profile_wallet(self, identifier: str,
                       coin: Optional[str] = "XMR") -> WalletProfile:
        """Query every transparent pool for one identifier."""
        profile = WalletProfile(identifier=identifier)
        for pool in self._pools.pools():
            if pool.config.transparency is Transparency.OPAQUE:
                continue  # minergate-style: nothing to scrape
            try:
                stats = pool.api_wallet_stats(identifier, self._query_date)
            except PoolError:
                continue
            if stats is None or (stats.total_paid == 0 and stats.hashes == 0):
                continue
            rates = self._rates.get(pool.config.coin)
            record = WalletRecord(
                pool=stats.pool,
                user=identifier,
                coin=pool.config.coin,
                hashes=stats.hashes,
                hashrate=stats.last_hashrate,
                last_share=stats.last_share,
                balance=stats.balance,
                total_paid=stats.total_paid,
                num_payments=stats.num_payments,
                date_query=self._query_date,
                payments=list(stats.payments or []),
                hashrate_history=list(stats.hashrate_history or []),
            )
            record.usd = self._to_usd(record, rates)
            profile.records.append(record)
        return profile

    def profile_many(self, identifiers: Iterable[str]) -> Dict[str, WalletProfile]:
        """Profile each distinct identifier once; only hits are
        returned, keyed in identifier order so every driver's
        ``profiles`` (and any float sum over it) comes out the same."""
        out: Dict[str, WalletProfile] = {}
        for identifier in sorted(set(identifiers)):
            profile = self.profile_wallet(identifier)
            if profile.records:
                out[identifier] = profile
        return out

    def _to_usd(self, record: WalletRecord,
                rates: Optional[ExchangeRates]) -> float:
        """Paper's conversion: per-payment historical rate when dated
        payments exist; the flat average for bare totals."""
        if rates is None:
            return 0.0
        if record.payments:
            usd = sum(rates.to_usd(amount, when)
                      for when, amount in record.payments)
            # payments may only cover a window; convert the uncovered
            # remainder at the coin's flat average (AVERAGE_XMR_USD
            # for XMR, the derived era average otherwise — previously
            # the non-XMR remainder converted at $0 and vanished).
            covered = sum(amount for _, amount in record.payments)
            remainder = max(0.0, record.total_paid - covered)
            if remainder > 0:
                usd += rates.to_usd(remainder, None)
            return usd
        return rates.to_usd(record.total_paid, None)
