"""Closed-loop adaptive sweep campaigns: propose, execute, ingest, repeat.

Instead of declaring a whole grid up front, a campaign lets a seeded
:class:`Strategy` look at the results so far and propose the next batch of
points, which the :class:`Campaign` runner executes through the standard
engine/store machinery (so every point is cached, traced and shardable
exactly like a declared sweep).  See ``docs/CAMPAIGNS.md`` for the
strategy protocol, stopping rules and a worked ``growth_window``
walkthrough.

>>> from repro.api import SweepSpec
>>> from repro.campaign import Campaign
>>> space = SweepSpec.grid(temperatures_c=[(t,) for t in range(300, 900, 20)])
>>> campaign = Campaign(
...     "growth_window", space, objective="quality", mode="max",
...     strategy="surrogate", batch_size=4, budget=12, seed=7,
...     store="/tmp/campaign-cache",
... )
>>> report = campaign.run()  # doctest: +SKIP
>>> report.best_point, report.savings  # doctest: +SKIP
"""

from repro.campaign.report import CampaignReport
from repro.campaign.runner import CHECKPOINT_VERSION, Campaign, CampaignError
from repro.campaign.strategies import (
    STRATEGIES,
    LatinHypercubeStrategy,
    RandomStrategy,
    RefineStrategy,
    Strategy,
    SurrogateStrategy,
    make_strategy,
    point_objectives,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "CHECKPOINT_VERSION",
    "Strategy",
    "RandomStrategy",
    "LatinHypercubeStrategy",
    "RefineStrategy",
    "SurrogateStrategy",
    "STRATEGIES",
    "make_strategy",
    "point_objectives",
]
