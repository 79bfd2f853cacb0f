//! The `figures` command line rejects what it does not understand
//! before it runs or writes anything.

use std::process::Command;

#[test]
fn unknown_options_are_usage_errors_that_write_nothing() {
    let dir = std::env::temp_dir().join(format!("multimap-figures-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    // A misspelt `--quick` used to run at paper scale; a trailing
    // `--backend` used to mean "all backends, saved".
    for args in [&["--quik", "fig1"][..], &["--quick", "fig1", "--backend"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("figures binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
        let written = std::fs::read_dir(&dir).expect("scratch directory").count();
        assert_eq!(written, 0, "{args:?} wrote into its working directory");
    }
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
}
