//! `nucleus generate` through the binary: a model flag out of its
//! generator's range, or one its model does not read, exits 1 with an
//! `error:` line naming the flag, and writes no output file.

use std::process::Command;

#[test]
fn generate_rejects_out_of_range_model_flags() {
    // (what the error must name, the model flags after `generate`)
    let cases: &[(&str, &[&str])] = &[
        ("--p", &["--model", "er", "--p", "1.5"]),
        ("--p", &["--model", "er", "--p", "-1"]),
        ("--p", &["--model", "er", "--p", "nan"]),
        ("--m", &["--model", "ba", "--n", "5", "--m", "10"]),
        ("--m", &["--model", "ba", "--m", "0"]),
        ("--p", &["--model", "hk", "--p", "2"]),
        ("--k", &["--model", "ws", "--k", "3"]),
        ("--k", &["--model", "ws", "--k", "20", "--n", "10"]),
        ("--count", &["--model", "cliques", "--count", "0"]),
        (
            "--blocks",
            &[
                "--model",
                "planted",
                "--blocks",
                "65536",
                "--block-size",
                "65536",
            ],
        ),
        ("--p-in", &["--model", "planted", "--p-in", "1.5"]),
        ("--scale", &["--model", "rmat", "--scale", "64"]),
        ("--scale", &["--model", "rmat", "--scale", "63"]),
        ("--scale", &["--model", "rmat", "--scale", "32"]),
        // A flag USAGE gives another model is named with this one.
        (
            "--n does not apply to --model rmat",
            &["--model", "rmat", "--scale", "8", "--n", "5000"],
        ),
        (
            "--k does not apply to --model karate",
            &["--model", "karate", "--p", "0.5", "--k", "4"],
        ),
    ];
    let dir = std::env::temp_dir().join(format!("nucleus-generate-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("g.txt");
    for (flag, model_flags) in cases {
        let line = model_flags.join(" ");
        let run = Command::new(env!("CARGO_BIN_EXE_nucleus"))
            .arg("generate")
            .args(*model_flags)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("run nucleus");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{line}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(flag),
            "{line}: {stderr}"
        );
        assert!(!out.exists(), "{line} wrote {}", out.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
