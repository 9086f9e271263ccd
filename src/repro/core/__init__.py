"""The paper's analysis pipeline — the primary contribution.

Typical use::

    from repro.core import StudyDataset, WearableStudy
    from repro.simnet import SimulationConfig, Simulator

    output = Simulator(SimulationConfig.medium(seed=1)).run()
    study = WearableStudy(StudyDataset.from_simulation(output))
    report = study.run_all()
    print(report.adoption.total_growth_percent)

Each analysis module maps to one paper section; see DESIGN.md for the
figure-by-figure index.
"""

from repro.core.activity import ActivityResult, HourlyProfile, analyze_activity
from repro.core.adoption import AdoptionResult, analyze_adoption
from repro.core.app_mapping import (
    AppMatch,
    AttributedRecord,
    SignatureCatalog,
    attribute_records,
    attribution_coverage,
)
from repro.core.apps import AppDailyStats, AppsResult, CategoryStats, analyze_apps
from repro.core.comparison import ComparisonResult, analyze_comparison
from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.domains import (
    DomainCategoryStats,
    DomainsResult,
    SingleUsageStats,
    analyze_domains,
    analyze_single_usage,
)
from repro.core.identification import DeviceCensus, WearableIdentifier
from repro.core.mobility import (
    MobilityResult,
    SectorTimeline,
    analyze_mobility,
    build_timelines,
)
from repro.core.pipeline import StudyReport, WearableStudy
from repro.core.sessions import UsageSession, sessionize
from repro.core.throughdevice import (
    TD_FINGERPRINT_HOSTS,
    ThroughDeviceResult,
    analyze_through_device,
)
from repro.core.cohorts import CohortResult, CohortRow, analyze_cohorts
from repro.core.devices import DeviceResult, ModelStats, analyze_devices
from repro.core.export import report_to_dict, write_report_json
from repro.core.figures import FIGURE_RENDERERS, render_all
from repro.core.protocols import ProtocolResult, analyze_protocols
from repro.core.streaming import StreamingWeekly
from repro.core.throughdevice_full import (
    ThroughDeviceFullResult,
    analyze_through_device_full,
)
from repro.core.weekly import WeeklyResult, analyze_weekly

__all__ = [
    "ActivityResult",
    "AdoptionResult",
    "AppDailyStats",
    "AppMatch",
    "AppsResult",
    "AttributedRecord",
    "CategoryStats",
    "CohortResult",
    "CohortRow",
    "ComparisonResult",
    "DeviceCensus",
    "DeviceResult",
    "ModelStats",
    "DomainCategoryStats",
    "DomainsResult",
    "FIGURE_RENDERERS",
    "HourlyProfile",
    "MobilityResult",
    "ProtocolResult",
    "SectorTimeline",
    "SignatureCatalog",
    "SingleUsageStats",
    "StreamingWeekly",
    "StudyDataset",
    "StudyReport",
    "StudyWindow",
    "TD_FINGERPRINT_HOSTS",
    "ThroughDeviceFullResult",
    "ThroughDeviceResult",
    "UsageSession",
    "WearableIdentifier",
    "WearableStudy",
    "WeeklyResult",
    "analyze_activity",
    "analyze_adoption",
    "analyze_apps",
    "analyze_cohorts",
    "analyze_comparison",
    "analyze_devices",
    "analyze_domains",
    "analyze_mobility",
    "analyze_protocols",
    "analyze_single_usage",
    "analyze_through_device",
    "analyze_through_device_full",
    "analyze_weekly",
    "attribute_records",
    "attribution_coverage",
    "build_timelines",
    "render_all",
    "report_to_dict",
    "sessionize",
    "write_report_json",
]
