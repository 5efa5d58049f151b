//! Shared command-line plumbing for the `pi2m` binary (and any tool built on
//! the facade crate): flag parsing, the output clobber guard, and the one
//! run-report builder. Durations parse with
//! [`parse_duration_str`](crate::serve::parse_duration_str). Kept in the library so it is
//! unit-tested like everything else.

use crate::obs::{analyze, AnalyzeOpts, RunReport};
use crate::refine::{CancelTelemetry, MeshOutput, MesherConfig};
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
/// swallow it as a value. (`--log` doubles as a switch: a path rides in
/// `--log=PATH` form only.)
pub const SWITCHES: &[&str] = &[
    "stats",
    "no-removals",
    "metrics",
    "audit",
    "reports",
    "log",
    "force",
    "keep-going",
    "version",
];

/// What one subcommand reads: its value-taking flags, its switches, and
/// the most positional arguments it takes after its name. `--log` is in
/// both lists of the commands that log, as bare `--log` and as
/// `--log=PATH`.
pub fn command_options(
    cmd: &str,
) -> Option<(&'static [&'static str], &'static [&'static str], usize)> {
    Some(match cmd {
        "mesh" => (
            &[
                "o",
                "delta",
                "threads",
                "size",
                "off",
                "report",
                "trace-out",
                "deadline",
                "outdir",
                "log",
            ],
            &[
                "no-removals",
                "force",
                "stats",
                "metrics",
                "audit",
                "reports",
                "keep-going",
                "log",
            ],
            usize::MAX,
        ),
        "serve" => (
            &[
                "addr",
                "sessions",
                "threads",
                "queue-cap",
                "spool",
                "default-deadline",
                "max-retries",
                "drain-grace",
                "log",
            ],
            &["log"],
            0,
        ),
        "phantom" => (&["scale"], &[], 2),
        "info" => (&[], &[], 1),
        "analyze" => (&[], &[], 2),
        "version" => (&[], &[], 0),
        _ => return None,
    })
}

/// Refuse every option the subcommand in `args` does not read, and the
/// first positional argument past the ones it takes (see
/// [`command_options`]), naming the first one found. An unknown subcommand
/// passes: dispatch reports it.
pub fn check_options(args: &Args) -> Result<(), String> {
    let Some(cmd) = args.positional.first() else {
        return Ok(());
    };
    let Some((flags, switches, max_positional)) = command_options(cmd) else {
        return Ok(());
    };
    if let Some(extra) = args.positional[1..].get(max_positional) {
        return Err(format!(
            "pi2m {cmd} takes at most {max_positional} positional argument(s): \
             unexpected '{extra}'"
        ));
    }
    let dashed = |name: &str| match name.len() {
        1 => format!("-{name}"),
        _ => format!("--{name}"),
    };
    let mut given: Vec<(&str, bool)> = args
        .flags
        .keys()
        .map(|k| (k.as_str(), true))
        .chain(args.switches.iter().map(|k| (k.as_str(), false)))
        .collect();
    given.sort_unstable();
    for (name, has_value) in given {
        let (ok, other) = match has_value {
            true => (flags, switches),
            false => (switches, flags),
        };
        if ok.contains(&name) {
            continue;
        }
        return Err(if !other.contains(&name) {
            format!("pi2m {cmd} does not take {}", dashed(name))
        } else if has_value {
            format!("{} takes no value", dashed(name))
        } else {
            format!("{} needs a value", dashed(name))
        });
    }
    Ok(())
}

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

/// A typed CLI failure, so scripts can branch on the process exit code
/// instead of scraping stderr. The mapping is part of the CLI contract:
///
/// | code | class | meaning |
/// |------|-------|---------|
/// | 1 | `error` | generic failure (bad flags, unknown input, a run that meshed nothing, ...) |
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
            RefineError::Cancelled(_) => CliError::Cancelled(e.to_string()),
            RefineError::Kernel(_) => CliError::Integrity(e.to_string()),
            RefineError::NoElements { .. } => CliError::Generic(e.to_string()),
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

/// Refuse an output path that already exists unless the user passed
/// `--force`.
pub fn check_new(path: &str, force: bool) -> Result<(), String> {
    if !force && std::path::Path::new(path).exists() {
        return Err(format!(
            "{path} already exists; pass --force to overwrite it"
        ));
    }
    Ok(())
}

/// Write an output artifact, refusing to clobber an existing file unless the
/// user passed `--force`.
pub fn write_new(path: &str, contents: &str, force: bool) -> Result<(), String> {
    check_new(path, force)?;
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// How a refinement run ended, with what it left to report.
#[derive(Clone, Copy)]
pub enum RunEnd<'a> {
    Finished(&'a MeshOutput),
    Cancelled(&'a CancelTelemetry),
}

/// The run report of one `pi2m mesh` input, finished or cancelled alike:
/// the configuration the run was given, its phases and metrics, the
/// contention analysis of its flight log, and the attribution from its
/// workers' own sums. `wall_s` is the wall the caller measured around the
/// run. A cancelled run's config gains `cancelled=true`, and it reports no
/// elements.
pub fn run_report(input: &str, cfg: &MesherConfig, end: RunEnd<'_>, wall_s: f64) -> RunReport {
    let (phases, metrics, flight, flight_dropped, attribution, elements) = match end {
        RunEnd::Finished(o) => (
            &o.phases,
            &o.metrics,
            &o.flight,
            o.flight_dropped,
            &o.attribution,
            o.mesh.num_tets() as u64,
        ),
        RunEnd::Cancelled(t) => (
            &t.phases,
            &t.metrics,
            &t.flight,
            t.flight_dropped,
            &t.attribution,
            0,
        ),
    };
    let mut report = RunReport::new("pi2m");
    report
        .config("input", input)
        .config("delta", cfg.delta)
        .config("threads", cfg.threads)
        .config("enable_removals", cfg.enable_removals);
    if let RunEnd::Cancelled(_) = end {
        report.config("cancelled", true);
    }
    report.set_phases(phases);
    report.threads = cfg.threads;
    report.wall_s = wall_s;
    report.elements = elements;
    report.metrics = metrics.clone();
    report.contention = Some(analyze(
        flight,
        AnalyzeOpts {
            threads: cfg.threads,
            wall_s: attribution.wall_s,
            dropped: flight_dropped,
        },
    ));
    report.attribution = Some(attribution.clone());
    report
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
            "--deadline=500ms",
            "--delta=1.5",
            "--force",
            "--metrics",
            "-o",
            "out.vtk",
        ]));
        assert_eq!(a.positional, vec!["mesh", "phantom:sphere"]);
        assert_eq!(a.flags.get("deadline").map(String::as_str), Some("500ms"));
        assert_eq!(a.flags.get("delta").map(String::as_str), Some("1.5"));
        assert_eq!(a.flags.get("o").map(String::as_str), Some("out.vtk"));
        assert!(a.switches.contains("force"));
        assert!(a.switches.contains("metrics"));
        assert_eq!(check_options(&a), Ok(()));
    }

    #[test]
    fn log_is_a_switch_or_takes_a_path() {
        let a = parse_args(&argv(&["serve", "--log", "--queue-cap", "8"]));
        assert!(a.switches.contains("log"));
        assert_eq!(a.flags.get("queue-cap").map(String::as_str), Some("8"));
        assert_eq!(check_options(&a), Ok(()));
        let a = parse_args(&argv(&["serve", "--log=/tmp/pi2m.jsonl"]));
        assert_eq!(
            a.flags.get("log").map(String::as_str),
            Some("/tmp/pi2m.jsonl")
        );
        assert_eq!(check_options(&a), Ok(()));
    }

    #[test]
    fn every_command_rejects_the_options_it_does_not_read() {
        let err = |args: &[&str]| check_options(&parse_args(&argv(args))).unwrap_err();
        assert_eq!(
            err(&["mesh", "x.pim", "--live", "--stats"]),
            "pi2m mesh does not take --live"
        );
        assert_eq!(
            err(&["mesh", "x.pim", "--live=500ms"]),
            "pi2m mesh does not take --live"
        );
        assert_eq!(
            err(&["mesh", "phantom:sphere", "--thread", "7"]),
            "pi2m mesh does not take --thread"
        );
        for flag in ["--shards", "--halo"] {
            assert_eq!(
                err(&["mesh", "x.pim", flag, "2"]),
                format!("pi2m mesh does not take {flag}")
            );
        }
        for flag in ["--shards", "--deadline"] {
            assert_eq!(
                err(&["serve", flag, "2x1x1"]),
                format!("pi2m serve does not take {flag}")
            );
        }
        assert_eq!(
            err(&["analyze", "r.json", "--audit"]),
            "pi2m analyze does not take --audit"
        );
        assert_eq!(
            err(&["info", "x.pim", "-o", "y"]),
            "pi2m info does not take -o"
        );
        assert_eq!(
            err(&["mesh", "x.pim", "--force=yes"]),
            "--force takes no value"
        );
        assert_eq!(err(&["mesh", "x.pim", "--delta"]), "--delta needs a value");
    }

    #[test]
    fn every_documented_option_of_a_command_passes() {
        for cmd in ["mesh", "serve", "phantom", "info", "analyze", "version"] {
            let (flags, switches, _) = command_options(cmd).unwrap();
            let mut raw = vec![cmd.to_string()];
            for f in flags {
                raw.push(format!("--{f}=1"));
            }
            raw.extend(switches.iter().map(|s| format!("--{s}")));
            assert_eq!(check_options(&parse_args(&raw)), Ok(()), "{cmd}");
        }
        // an unknown command is left to dispatch
        assert_eq!(check_options(&parse_args(&argv(&["nope", "--x"]))), Ok(()));
    }

    #[test]
    fn switch_does_not_swallow_following_positional() {
        let a = parse_args(&argv(&["mesh", "--keep-going", "a.pim", "b.pim"]));
        assert!(a.switches.contains("keep-going"));
        assert_eq!(a.positional, vec!["mesh", "a.pim", "b.pim"]);
    }

    #[test]
    fn every_command_refuses_positionals_past_the_ones_it_takes() {
        let check = |args: &[&str]| check_options(&parse_args(&argv(args)));
        for (args, extra) in [
            (&["serve", "stray"][..], "stray"),
            (&["version", "x"], "x"),
            (&["phantom", "sphere", "a.pim", "extra"], "extra"),
            (&["info", "a.pim", "b.pim"], "b.pim"),
            (&["analyze", "a.json", "b.json", "c.json"], "c.json"),
        ] {
            let e = check(args).unwrap_err();
            assert!(e.contains(&format!("'{extra}'")), "{args:?}: {e}");
        }
        let many: Vec<String> = (0..40).map(|i| format!("in{i}.pim")).collect();
        let mut mesh = vec!["mesh".to_string()];
        mesh.extend(many);
        assert_eq!(check_options(&parse_args(&mesh)), Ok(()));
        assert_eq!(check(&["analyze", "a.json", "b.json"]), Ok(()));
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
            CliError::from_refine(&RefineError::Cancelled(Box::default())).exit_code(),
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
        let empty = CliError::from_refine(&RefineError::NoElements { delta: 1.0 });
        assert_eq!(empty.exit_code(), 1);
        assert!(empty.to_string().contains("at delta 1.0 "), "{empty}");
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
