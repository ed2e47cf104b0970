//! End-to-end tests of the `segrout` CLI binary.

use std::process::Command;

fn segrout(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_segrout"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn topo_list_shows_all_embedded_networks() {
    let (ok, stdout, _) = segrout(&["topo", "list"]);
    assert!(ok);
    for name in ["Abilene", "Germany50", "Ta2"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn topo_show_prints_stats_and_links() {
    let (ok, stdout, _) = segrout(&["topo", "show", "Abilene"]);
    assert!(ok);
    assert!(stdout.contains("12 nodes"));
    assert!(stdout.contains("strongly connected"));
    assert!(stdout.contains("ATLAM5"));
}

#[test]
fn gaps_reports_instance_1() {
    let (ok, stdout, _) = segrout(&["gaps", "--instance", "1", "--m", "6"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Joint (constructive lemma setting): MLU = 1.0000"));
    assert!(stdout.contains("LWO-APX"));
}

#[test]
fn optimize_with_baseline_algorithm() {
    let (ok, stdout, _) = segrout(&[
        "optimize",
        "--topology",
        "Abilene",
        "--algorithm",
        "invcap",
        "--seed",
        "3",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("MLU:"));
    assert!(stdout.contains("hottest links"));
}

#[test]
fn save_and_load_round_trip() {
    let dir = std::env::temp_dir().join("segrout-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cfg.txt");
    let path_str = path.to_str().unwrap();

    let (ok, stdout, _) = segrout(&[
        "optimize",
        "--topology",
        "Abilene",
        "--algorithm",
        "greedywpo",
        "--seed",
        "7",
        "--save",
        path_str,
    ]);
    assert!(ok, "{stdout}");
    let mlu_line = stdout
        .lines()
        .find(|l| l.starts_with("MLU:"))
        .expect("MLU printed")
        .to_string();

    let (ok2, stdout2, _) = segrout(&[
        "optimize",
        "--topology",
        "Abilene",
        "--seed",
        "7",
        "--load",
        path_str,
    ]);
    assert!(ok2, "{stdout2}");
    assert!(
        stdout2.contains(&mlu_line),
        "loaded config must reproduce '{mlu_line}' in:\n{stdout2}"
    );
}

#[test]
fn metrics_out_writes_valid_jsonl() {
    let dir = std::env::temp_dir().join("segrout-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    let path_str = path.to_str().unwrap();

    let (ok, stdout, _) = segrout(&[
        "optimize",
        "--topology",
        "Abilene",
        "--traffic",
        "mcf",
        "--algorithm",
        "joint",
        "--seed",
        "1",
        "--metrics-out",
        path_str,
        "--log-level",
        "debug",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("run summary"), "summary table printed");

    let text = std::fs::read_to_string(&path).expect("telemetry file exists");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "telemetry must be non-empty");
    for (i, line) in lines.iter().enumerate() {
        let parsed = segrout::obs::Json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        assert!(
            parsed["type"] != segrout::obs::Json::Null,
            "line {} lacks a type: {line}",
            i + 1
        );
    }

    // The acceptance-critical metrics all appear as records.
    for name in [
        "heurospf.iterations",
        "heurospf.mlu_trajectory",
        "greedywpo.candidates_evaluated",
        "simplex.pivots",
        "time.heurospf",
        "time.greedywpo",
        "time.optimize",
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "metric {name} missing from telemetry:\n{text}"
        );
    }

    // The MLU trajectory is a real per-iteration series.
    let traj_line = lines
        .iter()
        .find(|l| l.contains("\"name\":\"heurospf.mlu_trajectory\""))
        .expect("trajectory record");
    let traj = segrout::obs::Json::parse(traj_line).unwrap();
    let values = traj["values"].as_arr().expect("values array");
    assert!(values.len() >= 2, "trajectory should have several samples");
}

fn segrout_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_segrout"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("segrout-cli-test").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn trace_profile_and_run_artifact_outputs() {
    let dir = tmp_dir("flight");
    let trace = dir.join("trace.jsonl");
    let profile = dir.join("profile.txt");
    let run = dir.join("run.json");

    let (ok, stdout, stderr) = segrout(&[
        "optimize",
        "--topology",
        "Abilene",
        "--algorithm",
        "heurospf",
        "--seed",
        "3",
        "--trace-out",
        trace.to_str().unwrap(),
        "--profile-out",
        profile.to_str().unwrap(),
        "--run-out",
        run.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("call-tree profile"), "{stdout}");

    // Convergence trace: valid JSONL, dense sequence, monotone best MLU.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let mut last_mlu = f64::INFINITY;
    let mut n = 0i64;
    for (i, line) in text.lines().enumerate() {
        let p = segrout::obs::Json::parse(line).expect("trace line parses");
        assert_eq!(p["type"], "trace");
        assert_eq!(p["seq"].as_i64(), Some(i as i64), "seq must be dense");
        assert!(p["event"].as_str().unwrap().starts_with("heurospf."));
        let mlu = p["mlu"].as_f64().expect("finite mlu");
        assert!(
            mlu <= last_mlu + 1e-12,
            "best MLU regressed at line {}: {mlu} > {last_mlu}",
            i + 1
        );
        last_mlu = mlu;
        n += 1;
    }
    assert!(n >= 2, "expected at least start + done trace points");

    // Collapsed stacks: `path;frames <self-weight-µs>` per line.
    let stacks = std::fs::read_to_string(&profile).expect("profile written");
    assert!(!stacks.trim().is_empty());
    let mut frames = Vec::new();
    for line in stacks.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("two fields");
        assert!(weight.parse::<u64>().is_ok(), "weight not integer: {line}");
        frames.extend(path.split(';').map(str::to_string));
    }
    assert!(
        frames.iter().any(|f| f == "optimize"),
        "profile must contain the optimize root frame: {stacks}"
    );

    // Run artifact: one self-describing JSON document.
    let art = segrout::obs::Json::parse(&std::fs::read_to_string(&run).unwrap())
        .expect("run artifact parses");
    assert_eq!(art["type"], "run");
    assert_eq!(art["schema"].as_i64(), Some(1));
    assert_eq!(art["command"], "optimize");
    assert_eq!(art["seed"].as_i64(), Some(3));
    assert_eq!(art["algorithm"], "heurospf");
    assert!(art["wall_ms"].as_f64().unwrap() > 0.0);
    assert!(art["provenance"]["host_cpus"].as_i64().unwrap() >= 1);
    assert!(
        art["metrics"]["heurospf.iterations"]["value"]
            .as_i64()
            .unwrap()
            > 0
    );
    assert!(art["trace"].as_arr().unwrap().len() as i64 == n);
}

#[test]
fn report_of_identical_runs_is_ok() {
    let dir = tmp_dir("report-ok");
    let a = dir.join("a.run.json");
    let b = dir.join("b.run.json");
    for path in [&a, &b] {
        let (ok, stdout, stderr) = segrout(&[
            "optimize",
            "--topology",
            "Abilene",
            "--algorithm",
            "heurospf",
            "--seed",
            "5",
            "--trace-out",
            dir.join("t.jsonl").to_str().unwrap(),
            "--run-out",
            path.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}\n{stderr}");
    }
    // Wall-clock rows are noisy (this test binary runs in parallel), so
    // compare with timing effectively unchecked: the deterministic rows —
    // final MLU and every work counter — must agree exactly.
    let (code, stdout, _) = segrout_code(&[
        "report",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--time-tol",
        "1000",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("final MLU"), "{stdout}");
    assert!(stdout.contains("verdict: OK"), "{stdout}");
    let mlu_row = stdout
        .lines()
        .find(|l| l.starts_with("final MLU"))
        .expect("final MLU row");
    assert!(mlu_row.trim_end().ends_with("OK"), "{mlu_row}");
}

#[test]
fn report_flags_regression_with_exit_code_2() {
    let dir = tmp_dir("report-regressed");
    let old = dir.join("old.run.json");
    let new = dir.join("new.run.json");
    let artifact = |mlu: f64| {
        format!(
            "{{\"type\":\"run\",\"schema\":1,\"metrics\":{{\"run.mlu\":{{\"kind\":\"gauge\",\"value\":{mlu}}}}}}}"
        )
    };
    std::fs::write(&old, artifact(1.50)).unwrap();
    std::fs::write(&new, artifact(1.80)).unwrap();

    let (code, stdout, stderr) =
        segrout_code(&["report", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stdout}\n{stderr}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stderr.contains("verdict: REGRESSED"), "{stderr}");

    // A generous threshold turns the same comparison into a pass.
    let (code, stdout, _) = segrout_code(&[
        "report",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--mlu-tol",
        "0.5",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("verdict: OK"), "{stdout}");
}

#[test]
fn report_rejects_bad_arguments() {
    let (ok, _, stderr) = segrout(&["report", "only-one-file.json"]);
    assert!(!ok);
    assert!(stderr.contains("exactly two files"), "{stderr}");

    let dir = tmp_dir("report-bad");
    let a = dir.join("a.json");
    std::fs::write(&a, "{\"type\":\"run\",\"schema\":1}").unwrap();
    let (ok, _, stderr) = segrout(&[
        "report",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--mlu-tol",
        "minus-one",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--mlu-tol"), "{stderr}");
}

#[test]
fn catalog_lists_metrics_and_check_accepts_real_telemetry() {
    let (ok, stdout, _) = segrout(&["catalog"]);
    assert!(ok);
    for name in ["heurospf.iterations", "run.mlu", "time.optimize"] {
        assert!(stdout.contains(name), "catalog must list {name}:\n{stdout}");
    }

    let dir = tmp_dir("catalog");
    let metrics = dir.join("metrics.jsonl");
    let (ok, stdout, stderr) = segrout(&[
        "optimize",
        "--topology",
        "Abilene",
        "--algorithm",
        "joint",
        "--seed",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    let (ok, stdout, stderr) = segrout(&["catalog", "--check", metrics.to_str().unwrap()]);
    assert!(ok, "catalog drift: {stdout}\n{stderr}");
    assert!(stdout.contains("catalog check passed"), "{stdout}");
}

#[test]
fn catalog_check_flags_undocumented_metric() {
    let dir = tmp_dir("catalog-drift");
    let metrics = dir.join("drift.jsonl");
    std::fs::write(
        &metrics,
        "{\"type\":\"counter\",\"name\":\"bogus.metric\",\"value\":1}\n",
    )
    .unwrap();
    let (ok, _, stderr) = segrout(&["catalog", "--check", metrics.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("bogus.metric"), "{stderr}");
}

#[test]
fn bad_log_level_fails_cleanly() {
    let (ok, _, stderr) = segrout(&["optimize", "--log-level", "shouty"]);
    assert!(!ok);
    assert!(stderr.contains("--log-level"), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = segrout(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_topology_fails_cleanly() {
    let (ok, _, stderr) = segrout(&["optimize", "--topology", "NoSuchNet"]);
    assert!(!ok);
    assert!(stderr.contains("unknown topology"));
}

#[test]
fn parse_rejects_missing_file() {
    let (ok, _, stderr) = segrout(&["parse", "--sndlib", "/nonexistent/file.xml"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn flag_without_value_is_a_usage_error() {
    // Last on the line.
    let (ok, _, stderr) = segrout(&["optimize", "--topology"]);
    assert!(!ok);
    assert!(stderr.contains("--topology needs a value"), "{stderr}");
    assert!(!stderr.contains("unknown topology"), "{stderr}");
    // Followed by another flag, which must not be taken as its value.
    let (ok, _, stderr) = segrout(&["optimize", "--topology", "--algorithm", "heurospf"]);
    assert!(!ok);
    assert!(stderr.contains("--topology needs a value"), "{stderr}");
    assert!(!stderr.contains("unknown topology"), "{stderr}");
}

#[test]
fn unknown_flags_are_usage_errors_naming_flag_and_command() {
    let dir = tmp_dir("unknown-flag");
    let metrics = dir.join("metrics.jsonl");
    let _ = std::fs::remove_file(&metrics);
    for (args, flag, cmd) in [
        (
            &["optimize", "--topolgy", "Germany50"][..],
            "--topolgy",
            "optimize",
        ),
        (&["sweep", "--double"][..], "--double", "sweep"),
        (
            &["gaps", "--instance", "1", "--seed", "9"][..],
            "--seed",
            "gaps",
        ),
    ] {
        let mut args = args.to_vec();
        args.extend(["--metrics-out", metrics.to_str().unwrap()]);
        let (code, _, stderr) = segrout_code(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for '{cmd}'")),
            "{stderr}"
        );
        assert!(!stderr.contains("needs a value"), "{stderr}");
        assert!(!metrics.exists(), "{args:?}: an output file was opened");
    }
}

#[test]
fn out_of_range_values_are_errors_naming_the_value() {
    for (args, value) in [
        (&["gaps", "--instance", "1", "--m", "0"][..], "--m 0"),
        (&["gaps", "--instance", "4", "--m", "1"][..], "--m 1"),
        (&["sweep", "--scalings", "1e308"][..], "--scalings 1e308"),
        (&["optimize", "--pairs", "0"][..], "--pairs 0"),
        (&["optimize", "--pairs", "-1"][..], "--pairs -1"),
        (&["optimize", "--pairs", "nan"][..], "--pairs nan"),
        (&["optimize", "--pairs", "5"][..], "--pairs 5"),
        (&["serve", "--pairs", "0"][..], "--pairs 0"),
        (&["sweep", "--pairs", "1.5"][..], "--pairs 1.5"),
    ] {
        let (code, _, stderr) = segrout_code(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(value), "{args:?}: {stderr}");
    }
}
