//! Golden exactness pin for the whole plan, off-loading included.
//!
//! `golden_restoration.rs` pins the per-site pass, which stops before
//! stage 4; nothing there sees the absorption heap or the negotiation.
//! This test digests `ReplicationPolicy::plan` end to end for
//! `WorkloadParams::small()` seeds 1-6 at two squeezes:
//!
//! - `cold`: storage 0.5, processing 0.5, repository unbounded;
//! - `offload`: storage 0.5, processing 1.0, and the repository at 90% of
//!   the load the unbounded-repository plan puts on it, so off-loading
//!   runs.
//!
//! Each line is an FNV-1a digest over every mark of the placement, the
//! objective's bits, the storage reports' fields, and the `Debug` text of
//! the capacity and negotiation reports.

use mmrepl_core::{ReplicationPolicy, StorageReport};
use mmrepl_model::{ReqPerSec, System};
use mmrepl_workload::{generate_system, WorkloadParams};

/// FNV-1a (64-bit): a digest that is stable across toolchains, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The storage report's fields as one line. Spelled out rather than
/// `Debug`, so a counter added to the report later leaves the digest
/// alone.
fn storage_line(st: &StorageReport) -> String {
    format!(
        "{} {} {} {} {} {} {}",
        st.deallocated,
        st.orphaned,
        st.repartitioned,
        st.repartition_calls,
        st.bytes_freed,
        st.heap_pops,
        st.feasible
    )
}

fn squeezed(seed: u64, squeeze: &str) -> System {
    let raw = generate_system(&WorkloadParams::small(), seed).unwrap();
    match squeeze {
        "cold" => raw.with_storage_fraction(0.5).with_processing_fraction(0.5),
        "offload" => {
            let local = raw.with_storage_fraction(0.5).with_processing_fraction(1.0);
            let induced = ReplicationPolicy::new()
                .plan(&local)
                .placement
                .repo_load(&local);
            local.with_repository_capacity(ReqPerSec(induced.get() * 0.9))
        }
        _ => unreachable!("unknown squeeze {squeeze}"),
    }
}

/// One line per (squeeze, seed): `squeeze seed objective_bits digest`.
fn observed() -> Vec<String> {
    let mut lines = Vec::new();
    for squeeze in ["cold", "offload"] {
        for seed in 1..=6u64 {
            let sys = squeezed(seed, squeeze);
            let out = ReplicationPolicy::new().plan(&sys);
            let marks = out.placement.iter().flat_map(|(_, part)| {
                part.local_compulsory
                    .iter()
                    .map(|&m| u8::from(m))
                    .chain([2])
                    .chain(part.local_optional.iter().map(|&m| u8::from(m)))
                    .chain([3])
            });
            let report = &out.report;
            // The offload squeeze exists to drive stage 4.
            assert_eq!(
                report.negotiation.rounds > 0,
                squeeze == "offload",
                "{squeeze} {seed}: {} rounds",
                report.negotiation.rounds
            );
            let text: String = report
                .storage
                .iter()
                .map(storage_line)
                .chain(report.capacity.iter().map(|c| format!("{c:?}")))
                .chain([format!("{:?}", report.negotiation)])
                .collect::<Vec<_>>()
                .join("\n");
            let digest = fnv1a(
                marks
                    .chain(report.objective.to_bits().to_le_bytes())
                    .chain(text.into_bytes()),
            );
            lines.push(format!(
                "{squeeze} {seed} {:016x} {digest:016x}",
                report.objective.to_bits()
            ));
        }
    }
    lines
}

const GOLDEN: &[&str] = &[
    "cold 1 40dec44ae20828ba dc7944a32ca210e8",
    "cold 2 40ea103c13f0c4ff 579411293c068ef4",
    "cold 3 40e27c9e3866191b 6a7d61f43fa7c0fd",
    "cold 4 40e5a58ebd296723 25433ba93d68c3ab",
    "cold 5 40e6e91c247ef7db 83affe5c2fdd32d8",
    "cold 6 40dfc14df5e4c995 c1ebed70849584d3",
    "offload 1 40d52aaf59bc73d7 f82918575b1e51d6",
    "offload 2 40de3801fd739f70 ebed9380ac7a23f4",
    "offload 3 40d5f1d4bfee025b 7e66dda4c96407d1",
    "offload 4 40e022e8bb8fd1e0 7f2d600693a7faf5",
    "offload 5 40df74920253577c 6ee5bb3727ab7910",
    "offload 6 40da693c69bae89d 671d508492d34d9f",
];

#[test]
fn whole_plan_matches_the_recorded_digest() {
    let lines = observed();
    assert_eq!(
        lines,
        GOLDEN,
        "plan diverged; observed:\n{}",
        lines.join("\n")
    );
}
