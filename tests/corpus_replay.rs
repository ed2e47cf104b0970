//! Replays every shrunk reproducer in `tests/corpus/` through the full
//! differential check. Each file is a [`segrout::check::Case`] — either a
//! hand-seeded anchor or a minimal reproducer written by a fuzz campaign —
//! and must pass cleanly: a regression here means a previously fixed bug is
//! back.

use segrout::check::{Case, CaseOutcome};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_cases_parse_and_round_trip() {
    let mut seen = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "case") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let case = Case::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        // Serialization is canonical: a second round trip is a fixed point.
        let canon = case.to_text();
        assert_eq!(
            Case::from_text(&canon).unwrap(),
            case,
            "{}: round trip diverged",
            path.display()
        );
    }
    assert!(seen >= 1, "the corpus must hold at least one case");
}

#[test]
fn corpus_cases_pass_the_full_differential_check() {
    let mut seen = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "case") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let case = Case::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        match case.run(false) {
            CaseOutcome::Pass { checks } => {
                assert!(checks > 0, "{}: ran zero checks", path.display());
            }
            other => panic!("{}: {other}", path.display()),
        }
    }
    assert!(seen >= 1, "the corpus must hold at least one case");
}
