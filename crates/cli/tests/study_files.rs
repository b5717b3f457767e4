//! The `results/` file contract of `mmrepl study`: the twelve study names
//! between them write exactly the files committed under `results/`, and
//! the figure sweeps run on the committed axes.

use mmrepl_sim::FigureData;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every study name and the files it writes.
const STUDIES: [(&str, &[&str]); 12] = [
    ("table1", &["table1.json", "table1.txt"]),
    (
        "fig1",
        &[
            "figure1.json",
            "figure1.txt",
            "headline.json",
            "headline.txt",
        ],
    ),
    ("fig2", &["figure2.json", "figure2.txt"]),
    ("fig3", &["figure3.json", "figure3.txt"]),
    ("ablations", &["ablations.json", "ablations.txt"]),
    ("drift", &["drift.json", "drift.txt"]),
    ("online", &["online.json", "online.txt"]),
    ("caches", &["cache_comparison.json", "cache_comparison.txt"]),
    ("updates", &["updates.json", "updates.txt"]),
    ("queueing", &["queueing.txt"]),
    ("federate", &["federate.json", "federate.txt"]),
    ("negotiate", &["negotiate.json", "negotiate.txt"]),
];

fn mmrepl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmrepl"))
        .args(args)
        .output()
        .expect("the mmrepl binary starts")
}

fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

fn sweep_xs(path: &Path) -> Vec<f64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let fig: FigureData = serde_json::from_str(&text).unwrap();
    fig.points.iter().map(|p| p.x).collect()
}

#[test]
fn every_study_writes_its_committed_results_files() {
    let scratch = std::env::temp_dir().join(format!("mmrepl-study-files-{}", std::process::id()));
    let mut written = BTreeSet::new();
    for (name, files) in STUDIES {
        let out = scratch.join(name);
        let run = mmrepl(&[
            "study",
            name,
            "--quick",
            "--runs",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "study {name} failed:\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let got = file_names(&out);
        let want: BTreeSet<String> = files.iter().map(|f| f.to_string()).collect();
        assert_eq!(got, want, "files written by study {name}");
        written.extend(got);
    }
    assert_eq!(written, file_names(&committed()));
    // The quick figures sweep the axes the committed figures were made on.
    for (study, fig) in [
        ("fig1", "figure1"),
        ("fig2", "figure2"),
        ("fig3", "figure3"),
    ] {
        let file = format!("{fig}.json");
        assert_eq!(
            sweep_xs(&scratch.join(study).join(&file)),
            sweep_xs(&committed().join(&file)),
            "{file} sweep axis"
        );
    }
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn a_foreign_option_or_an_unknown_study_exits_2_with_a_message() {
    for (args, message) in [
        (
            &["study", "fig1", "--central", "0.1"][..],
            "study fig1 does not take --central",
        ),
        (&["study", "bogus"], "unknown study \"bogus\""),
    ] {
        let run = mmrepl(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
