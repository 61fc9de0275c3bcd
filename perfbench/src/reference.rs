//! FIT values recorded at the default seed, against which later
//! versions of the program are checked within [`SIGMAS`] standard
//! deviations of their own counting error.

use crate::workloads::Workload;

/// The seed whose FIT values are recorded below.
pub const DEFAULT_SEED: u64 = 1;

/// Allowed distance from a recorded FIT, in standard deviations of the
/// checked report's strike-MC counting error.
pub const SIGMAS: f64 = 5.0;

/// `(workload, op label, total FIT)` at [`DEFAULT_SEED`].
const RECORDED: &[(Workload, &str, f64)] = &[
    (Workload::Fig9Sweep, "alpha@0.70V", 6.568073186642325e-4),
    (Workload::Fig9Sweep, "proton@0.70V", 1.0609256077235274e-3),
    (Workload::Fig9Sweep, "alpha@0.80V", 4.7530603158937217e-4),
    (Workload::Fig9Sweep, "proton@0.80V", 5.415115865201833e-4),
    (Workload::Fig9Sweep, "alpha@0.90V", 3.4215939975654425e-4),
    (Workload::Fig9Sweep, "proton@0.90V", 2.8123979014048903e-4),
    (Workload::Fig9Sweep, "alpha@1.00V", 2.4576994299788893e-4),
    (Workload::Fig9Sweep, "proton@1.00V", 1.4876101723398515e-4),
    (Workload::Fig9Sweep, "alpha@1.10V", 1.758135107770308e-4),
    (Workload::Fig9Sweep, "proton@1.10V", 7.94600909638597e-5),
    (Workload::NominalLut, "alpha@0.70V", 5.653053469909751e-4),
    (Workload::NominalLut, "proton@0.70V", 0.0),
    (Workload::NominalLut, "alpha@0.80V", 1.3125904728433798e-4),
    (Workload::NominalLut, "proton@0.80V", 0.0),
    (Workload::NominalLut, "alpha@0.90V", 9.660362758340176e-5),
    (Workload::NominalLut, "proton@0.90V", 0.0),
    (Workload::NominalLut, "alpha@1.00V", 9.660362758340176e-5),
    (Workload::NominalLut, "proton@1.00V", 0.0),
    (Workload::NominalLut, "alpha@1.10V", 3.386436174687013e-5),
    (Workload::NominalLut, "proton@1.10V", 0.0),
    (
        Workload::CampaignResume,
        "runner alpha@0.70V",
        5.813359312507116e-4,
    ),
    (Workload::CampaignResume, "runner proton@0.70V", 0.0),
    (
        Workload::CampaignResume,
        "runner alpha@0.80V",
        1.109745863057082e-4,
    ),
    (
        Workload::CampaignResume,
        "runner alpha@1.10V",
        4.5357630205193335e-5,
    ),
];

/// The recorded total FIT of op `label` of `workload`.
pub fn fit_total(workload: Workload, label: &str) -> Option<f64> {
    RECORDED
        .iter()
        .find(|(w, l, _)| *w == workload && *l == label)
        .map(|&(_, _, fit)| fit)
}
