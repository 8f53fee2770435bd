//! Child isolation: the benchmark re-executes itself per (workload, role)
//! so that a panic, an error or a hang in one measurement costs one
//! failed operation, not the whole report.

use crate::workloads::BoxResult;
use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Runs this executable with `args`, waits at most `timeout`, and returns
/// its standard output and whether it exited with code 0. The child's
/// standard error passes through.
///
/// # Errors
///
/// Fails when the child cannot start or outlives `timeout` (it is killed
/// and reaped first).
pub fn run_self(args: &[String], timeout: Duration) -> BoxResult<(String, bool)> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut pipe = child.stdout.take().ok_or("child has no stdout pipe")?;
    // Drain the pipe on its own thread so a chatty child never blocks on
    // a full pipe while this thread polls for its exit.
    let reader = thread::spawn(move || {
        let mut out = String::new();
        pipe.read_to_string(&mut out).map(|_| out)
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break Some(status);
        }
        if Instant::now() >= deadline {
            // Best effort: the child may have exited since `try_wait`.
            let _ = child.kill();
            child.wait()?;
            break None;
        }
        thread::sleep(Duration::from_millis(20));
    };
    let stdout = reader
        .join()
        .map_err(|_| "the child's output reader panicked")??;
    match status {
        None => Err(format!("child {args:?} exceeded {timeout:?} and was killed").into()),
        Some(s) => Ok((stdout, s.success())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Not a test: a child for `a_hung_child_is_killed_and_reported` to
    /// kill. Under `cargo test` the current executable is the test
    /// harness, so its own flags select what the child does.
    #[test]
    #[ignore = "helper child: sleeps until killed"]
    fn helper_sleeping_child() {
        thread::sleep(Duration::from_secs(60));
    }

    fn harness(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn output_and_exit_status_come_back() {
        let (stdout, success) =
            run_self(&harness(&["--list"]), Duration::from_secs(30)).expect("child runs");
        assert!(success);
        assert!(stdout.contains("helper_sleeping_child"));
        let (_, success) =
            run_self(&harness(&["--no-such-flag"]), Duration::from_secs(30)).expect("child runs");
        assert!(!success, "a nonzero exit is reported, not an error");
    }

    #[test]
    fn a_hung_child_is_killed_and_reported() {
        let args = harness(&[
            "--ignored",
            "--exact",
            "children::tests::helper_sleeping_child",
        ]);
        let started = Instant::now();
        let err = run_self(&args, Duration::from_millis(300)).expect_err("the child hangs");
        assert!(err.to_string().contains("exceeded"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(30));
    }
}
