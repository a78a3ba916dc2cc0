//! The configuration boundary: the only module of the runtime that
//! touches the process environment.
//!
//! Every variable the runtime honours is one [`Knob`] row of a table —
//! its name, the [`Kind`] of value it expects (which is also its parser
//! and its setter), the default it falls back to, who sets it, and one
//! doc line. The table drives what would otherwise be hand-copied per
//! config type: [`apply`] parses each set variable with one parser per
//! kind and reports a bad value through one message, [`check_names`]
//! flags `TSJ_`-prefixed names that are no row (a misspelt name must be
//! as loud as a misspelt value), and [`render_markdown`] produces the
//! committed reference below. The figure harness (`tsj-bench`) declares
//! its `TSJ_FIG_*` rows with the same types and functions.
//!
//! [`Cluster::new`](crate::cluster::Cluster::new) starts from the
//! environment as it was resolved — and warned about — once per process;
//! every `Cluster::with_*` pins a value that ignores it.
//!
#![doc = include_str!("../ENV.md")]

use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use crate::pool::{SchedulerConfig, SchedulerMode, StraggleInjection};
use crate::shuffle::ShuffleConfig;
use crate::transport::Transport;

/// One environment variable: a row of a knob table over the settings
/// type `S` its values land in.
pub struct Knob<S: 'static> {
    /// The variable's name.
    pub name: &'static str,
    /// What a value must look like, and where a valid one goes.
    pub kind: Kind<S>,
    /// What an unset or invalid value means, as the fallback message and
    /// the rendered table word it.
    pub default: &'static str,
    /// Who sets the variable (a CI job, a documented command).
    pub set_by: &'static str,
    /// One line on what the variable does.
    pub doc: &'static str,
}

/// One name a [`Kind::Choice`] knob accepts, and what choosing it sets.
pub type Choice<S> = (&'static str, fn(&mut S));

/// The value a [`Knob`] expects — one parser per variant — paired with
/// the setter a parsed value is handed to.
pub enum Kind<S: 'static> {
    /// A count of at least one; `0` clamps to `1` (a plausible attempt at
    /// "off" that would otherwise mean "spill at every record").
    Count(fn(&mut S, usize)),
    /// A non-negative integer: microseconds, a period, a seed.
    Uint(fn(&mut S, u64)),
    /// A finite number above zero.
    Ratio(fn(&mut S, f64)),
    /// One of the listed names; surrounding whitespace, ASCII case and
    /// `-` / `_` separators do not matter.
    Choice(&'static [Choice<S>]),
    /// Free text that must not be blank; the string says what it names.
    Text(&'static str, fn(&mut S, String)),
}

impl<S> Kind<S> {
    /// What a valid value looks like, for the fallback message and the
    /// rendered table.
    pub fn expects(&self) -> String {
        match self {
            Kind::Count(_) => "a positive count".to_owned(),
            Kind::Uint(_) => "a non-negative integer".to_owned(),
            Kind::Ratio(_) => "a finite number above 0".to_owned(),
            Kind::Choice(choices) => {
                let names: Vec<String> = choices.iter().map(|(n, _)| format!("\"{n}\"")).collect();
                names.join(" or ")
            }
            Kind::Text(what, _) => (*what).to_owned(),
        }
    }

    /// Parses `raw` and stores it into `settings`; `false` (and
    /// `settings` untouched) when it is not a valid value of this kind.
    fn set(&self, settings: &mut S, raw: &str) -> bool {
        let raw = raw.trim();
        let stored = match self {
            Kind::Count(set) => raw.parse().ok().map(|n: usize| set(settings, n.max(1))),
            Kind::Uint(set) => raw.parse().ok().map(|n| set(settings, n)),
            Kind::Ratio(set) => {
                let valid = raw.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0);
                valid.map(|x| set(settings, x))
            }
            Kind::Choice(choices) => {
                let hit = choices
                    .iter()
                    .find(|(name, _)| spelling(name) == spelling(raw));
                hit.map(|(_, set)| set(settings))
            }
            Kind::Text(_, set) => (!raw.is_empty()).then(|| set(settings, raw.to_owned())),
        };
        stored.is_some()
    }
}

/// The one spelling rule of choice values: surrounding whitespace, ASCII
/// case, and `-` / `_` separators do not matter.
fn spelling(s: &str) -> String {
    s.trim().to_ascii_lowercase().replace(['-', '_'], "")
}

/// Applies every variable of `knobs` that `lookup` finds set to
/// `settings`. An invalid value leaves its setting alone and is reported
/// to `warn` — once, naming the variable, what it expects and what is
/// used instead — rather than panicking or passing silently: a typo in a
/// CI matrix must not quietly run the wrong configuration.
pub fn apply<S>(
    knobs: &[Knob<S>],
    settings: &mut S,
    lookup: impl Fn(&str) -> Option<OsString>,
    warn: &mut dyn FnMut(String),
) {
    for knob in knobs {
        let Some(raw) = lookup(knob.name) else {
            continue;
        };
        if !raw.to_str().is_some_and(|v| knob.kind.set(settings, v)) {
            let (name, expects, default) = (knob.name, knob.kind.expects(), knob.default);
            warn(format!(
                "ignoring invalid {name}={raw:?} (expected {expects}); using {default}"
            ));
        }
    }
}

/// Reports to `warn` every name in `names` that `owns` claims for this
/// table and that is no row of `knobs` — the misspelt-name half of the
/// loud-fallback promise.
pub fn check_names<S>(
    names: impl IntoIterator<Item = OsString>,
    owns: impl Fn(&str) -> bool,
    knobs: &[Knob<S>],
    warn: &mut dyn FnMut(String),
) {
    for name in names {
        let Some(name) = name.to_str() else {
            continue;
        };
        if owns(name) && !knobs.iter().any(|k| k.name == name) {
            warn(format!(
                "ignoring unknown {name}: no such knob (misspelt or removed?)"
            ));
        }
    }
}

/// Renders `knobs` as the markdown reference committed next to the table
/// (`ENV.md`; a test in each crate keeps the file equal to this).
pub fn render_markdown<S>(title: &str, knobs: &[Knob<S>]) -> String {
    let mut out = format!(
        "# {title}\n\n\
         Rendered from the knob table in the source; a test fails when this file and \
         the table disagree.\n\n\
         | variable | expects | unset or invalid means | set by | effect |\n\
         |---|---|---|---|---|\n"
    );
    for k in knobs {
        let (name, expects, default) = (k.name, k.kind.expects(), k.default);
        let (set_by, doc) = (k.set_by, k.doc);
        out.push_str(&format!(
            "| `{name}` | {expects} | {default} | {set_by} | {doc} |\n"
        ));
    }
    out.push_str(
        "\nAn invalid value is ignored with one line on stderr that names the variable, \
         what it expects and what is used instead; a variable with the table's prefix \
         that is not a row is reported the same way.\n",
    );
    out
}

/// What the environment resolves to: the configuration
/// [`Cluster::new`](crate::cluster::Cluster::new) starts from.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Settings {
    pub(crate) shuffle: ShuffleConfig,
    pub(crate) scheduler: SchedulerConfig,
    /// The straggler arrives as two variables and only counts when both
    /// do: [`from_lookup`] moves the pair into `scheduler.straggle`.
    straggle_stage: Option<String>,
    straggle_us: Option<u64>,
}

const SPILL_LEGS: &str = "CI `spill-path`, `multi-process-shuffle`, `remote-shuffle`, `scheduler`";
const EXCHANGE_LEGS: &str = "CI `multi-process-shuffle`, `remote-shuffle`";

/// The runtime's knobs.
const KNOBS: &[Knob<Settings>] = &[
    Knob {
        name: "TSJ_COMBINE_THRESHOLD",
        kind: Kind::Count(|d, n| d.shuffle.combine_threshold = Some(n)),
        default: "no mid-task combine",
        set_by: SPILL_LEGS,
        doc: "Buffered records at which a map task runs its combiner mid-task.",
    },
    Knob {
        name: "TSJ_SPILL_THRESHOLD",
        kind: Kind::Count(|d, n| d.shuffle.spill_threshold = Some(n)),
        default: "never spill",
        set_by: SPILL_LEGS,
        doc: "Hard per-mapper buffer cap in records; reaching it sorts and spills a run.",
    },
    Knob {
        name: "TSJ_SPILL_DIR",
        kind: Kind::Text("a directory path", |d, dir| {
            d.shuffle.spill_dir = Some(PathBuf::from(dir))
        }),
        default: "the system temp dir",
        set_by: "CI `multi-process-shuffle`, `remote-shuffle` (leak check)",
        doc: "Base directory of the per-job run-file and merge-scratch directories.",
    },
    Knob {
        name: "TSJ_SHUFFLE_TRANSPORT",
        kind: Kind::Choice(&[
            (Transport::InProcess.name(), |d| {
                d.shuffle.transport = Transport::InProcess
            }),
            (Transport::MultiProcess.name(), |d| {
                d.shuffle.transport = Transport::MultiProcess
            }),
            (Transport::Remote.name(), |d| {
                d.shuffle.transport = Transport::Remote
            }),
        ]),
        default: "in-process",
        set_by: EXCHANGE_LEGS,
        doc: "How map output reaches reduce tasks: segment handoff, published run files, \
              or the same files fetched from a run server.",
    },
    Knob {
        name: "TSJ_MERGE_FAN_IN",
        kind: Kind::Count(|d, n| d.shuffle.merge_fan_in = Some(n)),
        default: "one merge pass over all runs",
        set_by: EXCHANGE_LEGS,
        doc: "Cap on the reduce-side merge's open runs (below 2 behaves as 2).",
    },
    Knob {
        name: "TSJ_NET_FAULT_DROP_NTH",
        kind: Kind::Uint(|d, n| d.shuffle.net_fault.drop_nth = n),
        default: "0 (off)",
        set_by: "CI `remote-shuffle` fault smoke",
        doc: "The remote transport's run server drops every n-th request.",
    },
    Knob {
        name: "TSJ_NET_FAULT_STALL_US",
        kind: Kind::Uint(|d, us| d.shuffle.net_fault.stall_us = us),
        default: "0 (off)",
        set_by: "CI `remote-shuffle` fault smoke",
        doc: "The run server sleeps this many microseconds before each request.",
    },
    Knob {
        name: "TSJ_SCHEDULER",
        kind: Kind::Choice(&[
            (SchedulerMode::Stealing.name(), |d| {
                d.scheduler.mode = SchedulerMode::Stealing
            }),
            (SchedulerMode::Speculative.name(), |d| {
                d.scheduler.mode = SchedulerMode::Speculative
            }),
        ]),
        default: "stealing",
        set_by: "CI `scheduler`",
        doc: "Worker-pool policy; speculative re-runs straggling tasks on idle workers.",
    },
    Knob {
        name: "TSJ_SPECULATE_AFTER_US",
        kind: Kind::Uint(|d, us| d.scheduler.speculate_after = Duration::from_micros(us)),
        default: "20000 (20 ms)",
        set_by: "CI `scheduler`",
        doc: "Microseconds a primary attempt runs before it may be speculated.",
    },
    Knob {
        name: "TSJ_STRAGGLE_STAGE",
        kind: Kind::Text("a stage name", |d, stage| d.straggle_stage = Some(stage)),
        default: "no injected straggler",
        set_by: "EXPERIMENTS.md, the verify skill",
        doc: "Stage whose map task 0 sleeps on its primary attempt; needs `TSJ_STRAGGLE_US`.",
    },
    Knob {
        name: "TSJ_STRAGGLE_US",
        kind: Kind::Uint(|d, us| d.straggle_us = Some(us)),
        default: "no injected straggler",
        set_by: "EXPERIMENTS.md, the verify skill",
        doc: "The injected sleep in microseconds; needs `TSJ_STRAGGLE_STAGE`.",
    },
];

/// The figure harness owns (and checks) the `TSJ_FIG_` names.
fn owns(name: &str) -> bool {
    name.starts_with("TSJ_") && !name.starts_with("TSJ_FIG_")
}

/// Resolves [`KNOBS`] against an arbitrary variable lookup — tests pass a
/// map instead of mutating the process environment, which is racy under
/// the threaded test runner.
pub(crate) fn from_lookup(
    lookup: impl Fn(&str) -> Option<OsString>,
    warn: &mut dyn FnMut(String),
) -> Settings {
    let mut settings = Settings::default();
    apply(KNOBS, &mut settings, lookup, warn);
    match (settings.straggle_stage.take(), settings.straggle_us.take()) {
        (Some(stage), Some(micros)) => {
            settings.scheduler.straggle = Some(StraggleInjection { stage, micros });
        }
        (None, None) => {}
        _ => warn(
            "ignoring a lone TSJ_STRAGGLE_STAGE or TSJ_STRAGGLE_US: a straggler needs both, \
             set and valid"
                .to_owned(),
        ),
    }
    settings
}

/// The process environment, resolved and warned about once per process.
#[expect(clippy::disallowed_methods, reason = "the runtime's knob table")]
pub(crate) fn ambient() -> &'static Settings {
    static AMBIENT: OnceLock<Settings> = OnceLock::new();
    AMBIENT.get_or_init(|| {
        let mut warn = |msg: String| eprintln!("tsj-mapreduce: {msg}");
        check_names(
            std::env::vars_os().map(|(name, _)| name),
            owns,
            KNOBS,
            &mut warn,
        );
        from_lookup(|name| std::env::var_os(name), &mut warn)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_netshuffle::FaultConfig;

    /// `from_lookup` over a slice, with the warnings it raised.
    fn resolve(vars: &[(&str, &str)]) -> (Settings, Vec<String>) {
        let mut warnings = Vec::new();
        let settings = from_lookup(
            |name| {
                let hit = vars.iter().find(|(k, _)| *k == name);
                hit.map(|(_, v)| OsString::from(v))
            },
            &mut |msg| warnings.push(msg),
        );
        (settings, warnings)
    }

    fn shuffle(edit: impl FnOnce(&mut ShuffleConfig)) -> Settings {
        let mut s = Settings::default();
        edit(&mut s.shuffle);
        s
    }

    fn scheduler(edit: impl FnOnce(&mut SchedulerConfig)) -> Settings {
        let mut s = Settings::default();
        edit(&mut s.scheduler);
        s
    }

    /// A valid value of every row and the settings it must produce. The
    /// straggler rows name their other half, which `every_row` sets too.
    fn valid(name: &str) -> (&'static str, Settings) {
        let straggler = || {
            scheduler(|s| {
                s.straggle = Some(StraggleInjection {
                    stage: "slow.stage".to_owned(),
                    micros: 2500,
                });
            })
        };
        match name {
            "TSJ_COMBINE_THRESHOLD" => ("32", shuffle(|s| s.combine_threshold = Some(32))),
            "TSJ_SPILL_THRESHOLD" => ("48", shuffle(|s| s.spill_threshold = Some(48))),
            "TSJ_SPILL_DIR" => (
                "/tmp/tsj-test-spill",
                shuffle(|s| s.spill_dir = Some("/tmp/tsj-test-spill".into())),
            ),
            "TSJ_SHUFFLE_TRANSPORT" => ("remote", shuffle(|s| s.transport = Transport::Remote)),
            "TSJ_MERGE_FAN_IN" => ("8", shuffle(|s| s.merge_fan_in = Some(8))),
            "TSJ_NET_FAULT_DROP_NTH" => ("5", shuffle(|s| s.net_fault.drop_nth = 5)),
            "TSJ_NET_FAULT_STALL_US" => ("200", shuffle(|s| s.net_fault.stall_us = 200)),
            "TSJ_SCHEDULER" => (
                "speculative",
                scheduler(|s| s.mode = SchedulerMode::Speculative),
            ),
            "TSJ_SPECULATE_AFTER_US" => (
                "500",
                scheduler(|s| s.speculate_after = Duration::from_micros(500)),
            ),
            "TSJ_STRAGGLE_STAGE" => ("slow.stage", straggler()),
            "TSJ_STRAGGLE_US" => ("2500", straggler()),
            other => panic!("row {other} has no case in this test"),
        }
    }

    #[test]
    fn every_row_defaults_parses_and_falls_back_loudly() {
        assert_eq!(resolve(&[]), (Settings::default(), vec![]));
        for knob in KNOBS {
            let (raw, want) = valid(knob.name);
            let mut vars = vec![(knob.name, raw)];
            match knob.name {
                "TSJ_STRAGGLE_STAGE" => vars.push(("TSJ_STRAGGLE_US", "2500")),
                "TSJ_STRAGGLE_US" => vars.push(("TSJ_STRAGGLE_STAGE", "slow.stage")),
                _ => {}
            }
            assert_eq!(resolve(&vars), (want, vec![]), "{}={raw}", knob.name);

            // Garbage and the empty string are invalid for every kind:
            // the default stands and exactly one warning names the row.
            for bad in ["carrier-pigeon", "-5", "3.5", ""] {
                if matches!(knob.kind, Kind::Text(..)) && !bad.is_empty() {
                    continue; // any non-blank text is a name
                }
                let (got, warnings) = resolve(&[(knob.name, bad)]);
                assert_eq!(got, Settings::default(), "{}={bad:?}", knob.name);
                assert_eq!(warnings.len(), 1, "{}={bad:?}: {warnings:?}", knob.name);
                assert!(
                    warnings[0].starts_with(&format!("ignoring invalid {}={bad:?}", knob.name))
                        && warnings[0].contains(&knob.kind.expects())
                        && warnings[0].ends_with(knob.default),
                    "{warnings:?}"
                );
            }
        }
    }

    #[test]
    fn record_counts_clamp_zero_to_one() {
        // "0" is a plausible attempt at "disable"; a 0-record cap would
        // spill forever, so it clamps to the minimum meaningful value.
        let (got, warnings) = resolve(&[
            ("TSJ_COMBINE_THRESHOLD", "0"),
            ("TSJ_SPILL_THRESHOLD", "0"),
            ("TSJ_MERGE_FAN_IN", "0"),
        ]);
        let want = shuffle(|s| {
            s.combine_threshold = Some(1);
            s.spill_threshold = Some(1);
            s.merge_fan_in = Some(1);
        });
        assert_eq!((got, warnings), (want, vec![]));
        // The fault knobs take 0 as the explicit "off" it is.
        let off = resolve(&[
            ("TSJ_NET_FAULT_DROP_NTH", "0"),
            ("TSJ_NET_FAULT_STALL_US", "0"),
        ]);
        assert_eq!(off, (Settings::default(), vec![]));
    }

    #[test]
    fn choices_ignore_case_separators_and_whitespace() {
        for (raw, want) in [
            ("in-process", Transport::InProcess),
            ("IN_PROCESS", Transport::InProcess),
            ("InProcess", Transport::InProcess),
            (" multiprocess ", Transport::MultiProcess),
            ("Multi-Process", Transport::MultiProcess),
            ("MULTI_PROCESS", Transport::MultiProcess),
            ("\tremote\n", Transport::Remote),
            ("Re-mote", Transport::Remote),
        ] {
            let got = resolve(&[("TSJ_SHUFFLE_TRANSPORT", raw)]);
            assert_eq!(got, (shuffle(|s| s.transport = want), vec![]), "{raw:?}");
        }
        let (got, warnings) = resolve(&[("TSJ_SCHEDULER", " STEALING ")]);
        assert_eq!((got, warnings), (Settings::default(), vec![]));
        // Every listed name — the enum's own `name()` — is accepted.
        for knob in KNOBS {
            let Kind::Choice(choices) = knob.kind else {
                continue;
            };
            for (name, _) in choices {
                assert_eq!(resolve(&[(knob.name, name)]).1, [""; 0], "{}", knob.name);
            }
        }
        // The FIFO queue is gone: its name is an invalid value now.
        let (got, warnings) = resolve(&[("TSJ_SCHEDULER", "fifo")]);
        assert_eq!(got, Settings::default());
        assert_eq!(
            warnings,
            [
                "ignoring invalid TSJ_SCHEDULER=\"fifo\" (expected \"stealing\" or \
              \"speculative\"); using stealing"
            ]
        );
    }

    #[test]
    fn a_valid_knob_next_to_an_invalid_one_still_applies() {
        let (got, warnings) = resolve(&[
            ("TSJ_COMBINE_THRESHOLD", "lots"),
            ("TSJ_SPILL_THRESHOLD", "48"),
        ]);
        assert_eq!(got, shuffle(|s| s.spill_threshold = Some(48)));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn the_straggler_pair_needs_both_halves() {
        for (have, raw, lack) in [
            ("TSJ_STRAGGLE_STAGE", "lonely", "TSJ_STRAGGLE_US"),
            ("TSJ_STRAGGLE_US", "2500", "TSJ_STRAGGLE_STAGE"),
        ] {
            let (got, warnings) = resolve(&[(have, raw)]);
            assert_eq!(got, Settings::default());
            assert_eq!(warnings.len(), 1, "{warnings:?}");
            assert!(
                warnings[0].contains(have) && warnings[0].contains(lack),
                "{warnings:?}"
            );
        }
    }

    #[test]
    fn unknown_names_warn_and_figure_names_are_not_ours() {
        let names = [
            "TSJ_SPILL_TRESHOLD", // misspelt
            "TSJ_PLAN_CHECK",     // pruned: `Cluster::with_plan_check` is the knob
            "TSJ_DATASET_MODE",   // pruned: stages always run as one lazy graph
            "TSJ_SPILL_THRESHOLD",
            "TSJ_FIG_N",
            "TSJFOO",
            "PATH",
        ];
        let mut warnings = Vec::new();
        check_names(names.map(OsString::from), owns, KNOBS, &mut |m| {
            warnings.push(m)
        });
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings[0].contains("TSJ_SPILL_TRESHOLD"), "{warnings:?}");
        assert!(warnings[1].contains("TSJ_PLAN_CHECK"), "{warnings:?}");
        assert!(warnings[2].contains("TSJ_DATASET_MODE"), "{warnings:?}");
    }

    /// Every CI leg, spelt and valued as `.github/workflows/ci.yml` sets
    /// it, resolves silently to the configuration the leg is there for.
    #[test]
    fn ci_legs_resolve_to_their_configurations() {
        let leg = |name: &str, vars: &[(&str, &str)], want: Settings| {
            assert_eq!(resolve(vars), (want, vec![]), "{name}");
        };
        let tiny = || ShuffleConfig::bounded(32, 48);
        let exchange = |transport| ShuffleConfig {
            spill_dir: Some("/w/job-dirs".into()),
            ..tiny().with_transport(transport).with_merge_fan_in(8)
        };
        leg(
            "spill-path",
            &[
                ("TSJ_COMBINE_THRESHOLD", "32"),
                ("TSJ_SPILL_THRESHOLD", "48"),
            ],
            shuffle(|s| *s = tiny()),
        );
        leg(
            "multi-process-shuffle",
            &[
                ("TSJ_SHUFFLE_TRANSPORT", "multiprocess"),
                ("TSJ_COMBINE_THRESHOLD", "32"),
                ("TSJ_SPILL_THRESHOLD", "48"),
                ("TSJ_MERGE_FAN_IN", "8"),
                ("TSJ_SPILL_DIR", "/w/job-dirs"),
            ],
            shuffle(|s| *s = exchange(Transport::MultiProcess)),
        );
        let remote = [
            ("TSJ_SHUFFLE_TRANSPORT", "remote"),
            ("TSJ_COMBINE_THRESHOLD", "32"),
            ("TSJ_SPILL_THRESHOLD", "48"),
            ("TSJ_MERGE_FAN_IN", "8"),
            ("TSJ_SPILL_DIR", "/w/job-dirs"),
            ("TSJ_NET_FAULT_DROP_NTH", "5"),
            ("TSJ_NET_FAULT_STALL_US", "200"),
        ];
        leg(
            "remote-shuffle",
            &remote[..5],
            shuffle(|s| *s = exchange(Transport::Remote)),
        );
        leg(
            "remote-shuffle fault smoke",
            &remote,
            shuffle(|s| {
                *s = exchange(Transport::Remote).with_net_fault(FaultConfig {
                    drop_nth: 5,
                    stall_us: 200,
                    seed: 0,
                });
            }),
        );
        leg(
            "scheduler",
            &[
                ("TSJ_COMBINE_THRESHOLD", "32"),
                ("TSJ_SPILL_THRESHOLD", "48"),
                ("TSJ_SCHEDULER", "speculative"),
                ("TSJ_SPECULATE_AFTER_US", "1000"),
            ],
            Settings {
                scheduler: SchedulerConfig {
                    mode: SchedulerMode::Speculative,
                    speculate_after: Duration::from_millis(1),
                    straggle: None,
                },
                ..shuffle(|s| *s = tiny())
            },
        );
    }

    /// Every `TSJ_*` variable name `text` mentions (a bare prefix such as
    /// `TSJ_FIG_*` is not a name).
    fn mentioned_names(text: &str) -> impl Iterator<Item = OsString> + '_ {
        text.split(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .filter(|token| token.starts_with("TSJ_") && !token.ends_with('_'))
            .map(OsString::from)
    }

    /// A renamed or pruned knob must not linger in a CI matrix or a
    /// documented command: every `TSJ_*` name these files mention is a
    /// row (the figure harness runs the same check on its `TSJ_FIG_*`).
    #[test]
    fn every_documented_name_is_a_row() {
        for (file, text) in [
            ("ci.yml", include_str!("../../../.github/workflows/ci.yml")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            (
                "SKILL.md",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ] {
            let mut warnings = Vec::new();
            check_names(mentioned_names(text), owns, KNOBS, &mut |m| {
                warnings.push(m)
            });
            assert!(warnings.is_empty(), "{file}: {warnings:?}");
        }
    }

    #[test]
    fn env_md_is_the_tables_rendering() {
        let rendered = render_markdown("Runtime knobs (`TSJ_*`)", KNOBS);
        assert!(
            include_str!("../ENV.md") == rendered,
            "crates/mapreduce/ENV.md is stale; it should read:\n{rendered}"
        );
    }
}
