//! Shared command-line plumbing for the `pi2m` binary (and any tool built on
//! the facade crate): flag parsing, duration parsing, and the output clobber
//! guard. Kept in the library so it is unit-tested like everything else.

use std::collections::{HashMap, HashSet};

/// A parsed command line: positionals in order, `--name value` /
/// `--name=value` flags, and boolean switches.
pub struct Args {
    pub positional: Vec<String>,
    pub flags: HashMap<String, String>,
    pub switches: HashSet<String>,
}

/// Boolean options that never take a value — without this list, a switch
/// followed by another short option (`--metrics -o out.vtk`) would greedily
/// swallow it as a value. (`--live` and `--log` double as switches: an
/// interval/path rides in `--live=INTERVAL` / `--log=PATH` form only.)
pub const SWITCHES: &[&str] = &[
    "stats",
    "no-removals",
    "metrics",
    "audit",
    "quick",
    "reports",
    "live",
    "log",
    "no-flight",
    "force",
    "keep-going",
    "version",
];

/// Split a raw argument vector into [`Args`]. `--name=value` always binds;
/// `--name value` binds unless `name` is a known switch; `-x value` always
/// binds; everything else is positional.
pub fn parse_args(raw: &[String]) -> Args {
    let mut a = Args {
        positional: Vec::new(),
        flags: Default::default(),
        switches: Default::default(),
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if let Some((k, v)) = name.split_once('=') {
                a.flags.insert(k.to_string(), v.to_string());
                continue;
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") && !SWITCHES.contains(&name) => {
                    a.flags.insert(name.to_string(), it.next().unwrap().clone());
                }
                _ => {
                    a.switches.insert(name.to_string());
                }
            }
        } else if let Some(name) = arg.strip_prefix("-") {
            if let Some(v) = it.next() {
                a.flags.insert(name.to_string(), v.clone());
            }
        } else {
            a.positional.push(arg.clone());
        }
    }
    a
}

/// Parse `"1s"`, `"500ms"`, `"2m"`, or a plain number of seconds into
/// seconds. Rejects zero, negative, non-finite, and overflowing values
/// with a message naming the offending input.
pub fn parse_duration(v: &str) -> Result<f64, String> {
    let t = v.trim();
    let (num, mult) = if let Some(n) = t.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = t.strip_suffix('s') {
        (n, 1.0)
    } else if let Some(n) = t.strip_suffix('m') {
        (n, 60.0)
    } else {
        (t, 1.0)
    };
    let x: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration '{v}' (expected e.g. 30, 1.5s, 500ms, 2m)"))?;
    let secs = x * mult;
    if !secs.is_finite() {
        return Err(format!("duration '{v}' overflows (must be finite)"));
    }
    if secs <= 0.0 {
        return Err(format!("duration '{v}' must be positive"));
    }
    Ok(secs)
}

/// A typed CLI failure, so scripts can branch on the process exit code
/// instead of scraping stderr. The mapping is part of the CLI contract:
///
/// | code | class | meaning |
/// |------|-------|---------|
/// | 1 | `error` | generic failure (bad flags, unknown input, ...) |
/// | 3 | `cancelled` | a deadline killed the run ([`RefineError::Cancelled`]) |
/// | 4 | `io` | an input or artifact could not be read/written |
/// | 5 | `integrity` | typed kernel/invariant violation or failed `--audit` |
/// | 6 | `worker-loss` | worker threads died past quorum, or livelock |
///
/// (2 is left alone: shells use it for their own usage errors.)
///
/// [`RefineError::Cancelled`]: crate::refine::RefineError::Cancelled
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Anything without a more specific class; exit code 1.
    Generic(String),
    /// The run was cancelled by a deadline; exit code 3.
    Cancelled(String),
    /// Reading an input or writing an artifact failed; exit code 4.
    Io(String),
    /// A typed integrity failure (kernel invariant, audit); exit code 5.
    Integrity(String),
    /// Worker deaths past quorum or livelock; exit code 6.
    WorkerLoss(String),
}

impl CliError {
    /// The process exit code for this class (see the table above).
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Generic(_) => 1,
            CliError::Cancelled(_) => 3,
            CliError::Io(_) => 4,
            CliError::Integrity(_) => 5,
            CliError::WorkerLoss(_) => 6,
        }
    }

    /// Short class label prefixed to the stderr message.
    pub fn kind(&self) -> &'static str {
        match self {
            CliError::Generic(_) => "error",
            CliError::Cancelled(_) => "cancelled",
            CliError::Io(_) => "io",
            CliError::Integrity(_) => "integrity",
            CliError::WorkerLoss(_) => "worker-loss",
        }
    }

    /// Classify an engine error into its CLI exit class.
    pub fn from_refine(e: &crate::refine::RefineError) -> CliError {
        use crate::refine::RefineError;
        match e {
            RefineError::Cancelled => CliError::Cancelled(e.to_string()),
            RefineError::Kernel(_) => CliError::Integrity(e.to_string()),
            RefineError::WorkerQuorumLost { .. } | RefineError::Livelock => {
                CliError::WorkerLoss(e.to_string())
            }
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Generic(m)
            | CliError::Cancelled(m)
            | CliError::Io(m)
            | CliError::Integrity(m)
            | CliError::WorkerLoss(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Generic(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Generic(m.to_string())
    }
}

/// Write an output artifact, refusing to clobber an existing file unless the
/// user passed `--force`.
pub fn write_new(path: &str, contents: &str, force: bool) -> Result<(), String> {
    if !force && std::path::Path::new(path).exists() {
        return Err(format!(
            "{path} already exists; pass --force to overwrite it"
        ));
    }
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_equals_form_and_switches() {
        let a = parse_args(&argv(&[
            "mesh",
            "phantom:sphere",
            "--live=500ms",
            "--delta=1.5",
            "--force",
            "--metrics",
            "-o",
            "out.vtk",
        ]));
        assert_eq!(a.positional, vec!["mesh", "phantom:sphere"]);
        assert_eq!(a.flags.get("live").map(String::as_str), Some("500ms"));
        assert_eq!(a.flags.get("delta").map(String::as_str), Some("1.5"));
        assert_eq!(a.flags.get("o").map(String::as_str), Some("out.vtk"));
        assert!(a.switches.contains("force"));
        assert!(a.switches.contains("metrics"));
    }

    #[test]
    fn live_switch_without_value() {
        let a = parse_args(&argv(&["mesh", "x.pim", "--live", "--stats"]));
        assert!(a.switches.contains("live"));
        assert!(!a.flags.contains_key("live"));
    }

    #[test]
    fn log_switch_doubles_like_live() {
        let a = parse_args(&argv(&["serve", "--log", "--queue-cap", "8"]));
        assert!(a.switches.contains("log"));
        assert_eq!(a.flags.get("queue-cap").map(String::as_str), Some("8"));
        let a = parse_args(&argv(&["serve", "--log=/tmp/pi2m.jsonl"]));
        assert_eq!(
            a.flags.get("log").map(String::as_str),
            Some("/tmp/pi2m.jsonl")
        );
    }

    #[test]
    fn switch_does_not_swallow_following_positional() {
        let a = parse_args(&argv(&["batch", "--keep-going", "a.pim", "b.pim"]));
        assert!(a.switches.contains("keep-going"));
        assert_eq!(a.positional, vec!["batch", "a.pim", "b.pim"]);
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("1s"), Ok(1.0));
        assert_eq!(parse_duration("500ms"), Ok(0.5));
        assert_eq!(parse_duration("2"), Ok(2.0));
        assert_eq!(parse_duration("0.25"), Ok(0.25));
        assert_eq!(parse_duration("2m"), Ok(120.0));
        assert_eq!(parse_duration(" 1.5s "), Ok(1.5));
    }

    #[test]
    fn duration_rejects_degenerate_values_with_clear_messages() {
        for (bad, expect) in [
            ("0", "positive"),
            ("0ms", "positive"),
            ("-1s", "positive"),
            ("-0.5", "positive"),
            ("1e400", "overflow"), // parses as +inf
            ("inf", "overflow"),
            ("-inf", "overflow"),
            ("nan", "overflow"),
            ("junk", "invalid duration"),
            ("", "invalid duration"),
            ("ms", "invalid duration"),
            ("1h", "invalid duration"), // no hour suffix; be explicit
        ] {
            let err = parse_duration(bad).unwrap_err();
            assert!(
                err.contains(expect),
                "'{bad}' should mention '{expect}', got: {err}"
            );
        }
    }

    #[test]
    fn cli_error_exit_codes_are_distinct_and_stable() {
        let cases = [
            (CliError::Generic("x".into()), 1, "error"),
            (CliError::Cancelled("x".into()), 3, "cancelled"),
            (CliError::Io("x".into()), 4, "io"),
            (CliError::Integrity("x".into()), 5, "integrity"),
            (CliError::WorkerLoss("x".into()), 6, "worker-loss"),
        ];
        let mut seen = HashSet::new();
        for (e, code, kind) in cases {
            assert_eq!(e.exit_code(), code);
            assert_eq!(e.kind(), kind);
            assert!(seen.insert(code), "duplicate exit code {code}");
        }
    }

    #[test]
    fn cli_error_classifies_refine_errors() {
        use crate::refine::RefineError;
        assert_eq!(
            CliError::from_refine(&RefineError::Cancelled).exit_code(),
            3
        );
        assert_eq!(
            CliError::from_refine(&RefineError::WorkerQuorumLost {
                died: 2,
                threads: 2
            })
            .exit_code(),
            6
        );
        assert_eq!(CliError::from_refine(&RefineError::Livelock).exit_code(), 6);
    }

    #[test]
    fn write_new_refuses_clobber_without_force() {
        let dir = std::env::temp_dir().join("pi2m-write-new-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        write_new(path, "first", false).unwrap();
        let err = write_new(path, "second", false).unwrap_err();
        assert!(err.contains("--force"), "unexpected error: {err}");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "first");

        write_new(path, "second", true).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "second");
        let _ = std::fs::remove_file(path);
    }
}
