//! The one reader of the `ESLAM_*` environment overrides.
//!
//! Library code never reads the process environment: [`crate::Slam`],
//! [`crate::Session`] and [`crate::run_sequence`] honour [`SlamConfig`]
//! exactly. A harness binary that lets an operator force a mode parses
//! the whole set once with [`Overrides::from_env`] and writes it into
//! its config with [`Overrides::apply`]:
//!
//! | variable | values | sets |
//! |---|---|---|
//! | `ESLAM_PREFETCH` | `auto`, `on`/`1`/`true`, `off`/`0`/`false` | [`SlamConfig::prefetch`] |
//! | `ESLAM_BACKEND` | `auto`, `off`, `sync`, `async` | [`BackendConfig::mode`](crate::BackendConfig::mode) |
//! | `ESLAM_BANDS` | `auto`, a positive integer | `OrbConfig::bands` of [`SlamConfig::orb`] |
//! | `ESLAM_TELEMETRY` | `auto`, `off`, `counters`, `full` | [`TelemetryConfig::mode`](crate::TelemetryConfig::mode) |
//!
//! All four share one parse contract: unset, empty and `auto` mean "no
//! override"; values are trimmed and case-insensitive; and an
//! unrecognised value panics up front with the accepted spellings,
//! never silently falling back. [`Overrides::report`] renders the
//! active set for logs.

use eslam_backend::BackendMode;
use eslam_features::BandMode;
use eslam_telemetry::TelemetryMode;

use crate::config::{PrefetchMode, SlamConfig};

const PREFETCH_ENV: &str = "ESLAM_PREFETCH";
const BACKEND_ENV: &str = "ESLAM_BACKEND";
const BANDS_ENV: &str = "ESLAM_BANDS";
const TELEMETRY_ENV: &str = "ESLAM_TELEMETRY";

/// The full set of environment overrides, parsed and validated.
/// `None` everywhere means "keep the configured value".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Overrides {
    /// Forced prefetch decision, from `ESLAM_PREFETCH`.
    pub prefetch: Option<bool>,
    /// Forced backend execution mode, from `ESLAM_BACKEND`.
    pub backend: Option<BackendMode>,
    /// Forced per-level row-band count, from `ESLAM_BANDS`.
    pub bands: Option<usize>,
    /// Forced telemetry recording mode, from `ESLAM_TELEMETRY`.
    pub telemetry: Option<TelemetryMode>,
}

impl Overrides {
    /// Parses every `ESLAM_*` override from the environment in one
    /// shot.
    ///
    /// # Panics
    /// Panics — with the variable name, the offending value and the
    /// accepted spellings — when any variable holds an unrecognised
    /// value. Call this early: failing at startup beats a run that
    /// silently ignored the operator's intent.
    pub fn from_env() -> Overrides {
        Overrides {
            prefetch: forced(PREFETCH_ENV, "auto, on or off", |value| match value {
                "on" | "1" | "true" => Some(true),
                "off" | "0" | "false" => Some(false),
                _ => None,
            }),
            backend: forced(
                BACKEND_ENV,
                "auto, off, sync or async",
                |value| match value {
                    "off" => Some(BackendMode::Off),
                    "sync" => Some(BackendMode::Sync),
                    "async" => Some(BackendMode::Async),
                    _ => None,
                },
            ),
            bands: forced(BANDS_ENV, "auto or a positive band count", |value| {
                value.parse::<usize>().ok().filter(|n| *n >= 1)
            }),
            telemetry: forced(
                TELEMETRY_ENV,
                "auto, off, counters or full",
                TelemetryMode::parse,
            ),
        }
    }

    /// Writes every forced toggle into its own `config` field; an unset
    /// toggle leaves its field as configured.
    pub fn apply(&self, config: &mut SlamConfig) {
        if let Some(on) = self.prefetch {
            config.prefetch = if on {
                PrefetchMode::On
            } else {
                PrefetchMode::Off
            };
        }
        if let Some(mode) = self.backend {
            config.backend.mode = mode;
        }
        if let Some(n) = self.bands {
            config.orb.bands = BandMode::Fixed(n);
        }
        if let Some(mode) = self.telemetry {
            config.telemetry.mode = mode;
        }
    }

    /// One line per variable, `auto` for unset — for run headers and
    /// CI logs.
    pub fn report(&self) -> String {
        let prefetch = match self.prefetch {
            None => "auto",
            Some(true) => "on",
            Some(false) => "off",
        };
        let backend = match self.backend {
            None => "auto",
            Some(BackendMode::Off) => "off",
            Some(BackendMode::Sync) => "sync",
            Some(BackendMode::Async) => "async",
        };
        let bands = self
            .bands
            .map_or_else(|| "auto".to_string(), |n| n.to_string());
        let telemetry = self.telemetry.map_or("auto", |m| m.name());
        format!(
            "{PREFETCH_ENV}={prefetch} {BACKEND_ENV}={backend} \
             {BANDS_ENV}={bands} {TELEMETRY_ENV}={telemetry}"
        )
    }
}

/// Reads the forced value of `var`, if any.
///
/// * Unset, empty/whitespace, or `auto` (case-insensitive) → `None`
///   ("no override").
/// * Otherwise the trimmed, ASCII-lowercased value is handed to
///   `parse`; `Some(v)` is the forced value.
/// * `parse` returning `None` panics with
///   `unrecognised {var}={raw:?} (expected {expected})`, quoting the
///   original (untrimmed) value.
fn forced<T>(var: &str, expected: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    let value = raw.trim().to_ascii_lowercase();
    if value.is_empty() || value == "auto" {
        return None;
    }
    match parse(&value) {
        Some(v) => Some(v),
        None => panic!("unrecognised {var}={raw:?} (expected {expected})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_dataset::sequence::SequenceSpec;
    use eslam_features::orb::{OrbExtractor, OrbScratch};

    #[test]
    fn report_renders_the_inactive_set() {
        assert_eq!(
            Overrides::default().report(),
            "ESLAM_PREFETCH=auto ESLAM_BACKEND=auto ESLAM_BANDS=auto ESLAM_TELEMETRY=auto"
        );
    }

    #[test]
    fn report_renders_an_active_set() {
        let overrides = Overrides {
            prefetch: Some(false),
            backend: Some(BackendMode::Async),
            bands: Some(3),
            telemetry: Some(TelemetryMode::Full),
        };
        assert_eq!(
            overrides.report(),
            "ESLAM_PREFETCH=off ESLAM_BACKEND=async ESLAM_BANDS=3 ESLAM_TELEMETRY=full"
        );
    }

    #[test]
    fn apply_sets_each_forced_toggle_in_its_own_field() {
        let mut unchanged = SlamConfig::default();
        Overrides::default().apply(&mut unchanged);
        assert_eq!(unchanged, SlamConfig::default());

        // Non-default telemetry sizes show that forcing the mode keeps
        // the rest of the telemetry config.
        let mut base = SlamConfig::default();
        base.telemetry.frame_budget_ms = 33.0;
        base.telemetry.flight_frames = 7;
        let set = |edit: fn(&mut SlamConfig)| {
            let mut config = base;
            edit(&mut config);
            config
        };
        let cases = [
            (
                Overrides {
                    prefetch: Some(true),
                    ..Overrides::default()
                },
                set(|c| c.prefetch = PrefetchMode::On),
            ),
            (
                Overrides {
                    prefetch: Some(false),
                    ..Overrides::default()
                },
                set(|c| c.prefetch = PrefetchMode::Off),
            ),
            (
                Overrides {
                    backend: Some(BackendMode::Sync),
                    ..Overrides::default()
                },
                set(|c| c.backend.mode = BackendMode::Sync),
            ),
            (
                Overrides {
                    bands: Some(3),
                    ..Overrides::default()
                },
                set(|c| c.orb.bands = BandMode::Fixed(3)),
            ),
            (
                Overrides {
                    telemetry: Some(TelemetryMode::Full),
                    ..Overrides::default()
                },
                set(|c| c.telemetry = c.telemetry.with_mode(TelemetryMode::Full)),
            ),
        ];
        for (overrides, expected) in cases {
            assert_ne!(expected, base, "{}", overrides.report());
            let mut config = base;
            overrides.apply(&mut config);
            assert_eq!(config, expected, "{}", overrides.report());
        }
    }

    // The parse contract. Env mutations are process-global; each test
    // uses its own variable name so parallel execution cannot
    // interleave.

    #[test]
    fn unset_empty_and_auto_force_nothing() {
        let parse = |s: &str| (s == "x").then_some(1);
        assert_eq!(forced("ESLAM_TEST_OVERRIDES_UNSET", "x", parse), None);
        for v in ["", "  ", "auto", "AUTO", " Auto "] {
            std::env::set_var("ESLAM_TEST_OVERRIDES_AUTO", v);
            assert_eq!(
                forced("ESLAM_TEST_OVERRIDES_AUTO", "x", parse),
                None,
                "{v:?}"
            );
        }
        std::env::remove_var("ESLAM_TEST_OVERRIDES_AUTO");
    }

    #[test]
    fn values_are_trimmed_and_lowercased_before_parsing() {
        std::env::set_var("ESLAM_TEST_OVERRIDES_CASE", "  ON ");
        let v = forced("ESLAM_TEST_OVERRIDES_CASE", "on or off", |s| {
            (s == "on").then_some(true)
        });
        assert_eq!(v, Some(true));
        std::env::remove_var("ESLAM_TEST_OVERRIDES_CASE");
    }

    #[test]
    #[should_panic(expected = "unrecognised ESLAM_TEST_OVERRIDES_BAD=\" Warp \"")]
    fn unparseable_values_panic_with_the_original_text() {
        std::env::set_var("ESLAM_TEST_OVERRIDES_BAD", " Warp ");
        let _ = forced("ESLAM_TEST_OVERRIDES_BAD", "on or off", |_| None::<bool>);
    }

    /// Child body of the `from_env` tests below: parses the environment
    /// and prints the resulting report. Run only when spawned with
    /// `--ignored` — env-var parsing cannot be exercised in-process
    /// because variables are process-global and tests run in parallel.
    #[test]
    #[ignore = "spawned as a child process by the from_env tests"]
    fn ignored_from_env_probe() {
        println!("PROBE {}", Overrides::from_env().report());
    }

    /// The config every mode of which [`ignored_pinned_run_probe`] pins.
    fn pinned_config() -> SlamConfig {
        let mut config = SlamConfig::scaled_for_tests(4.0);
        config.backend.mode = BackendMode::Sync;
        config.orb.bands = BandMode::Fixed(1);
        config.telemetry.mode = TelemetryMode::Off;
        config.prefetch = PrefetchMode::Off;
        config
    }

    /// The short sequence [`ignored_pinned_run_probe`] runs: fr1/room
    /// promotes a keyframe on nearly every frame, so local BA engages.
    fn pinned_sequence() -> eslam_dataset::sequence::SyntheticSequence {
        SequenceSpec::paper_sequences(5, 0.25)[3].build()
    }

    /// Child body of [`library_ignores_the_environment`]: runs
    /// [`pinned_sequence`] under [`pinned_config`] and prints which
    /// modes ran and everything the run produced.
    #[test]
    #[ignore = "spawned as a child process by library_ignores_the_environment"]
    fn ignored_pinned_run_probe() {
        let config = pinned_config();
        let seq = pinned_sequence();
        let result = crate::run_sequence(&seq, config);
        let first = seq.frames().next().expect("one frame");
        let mut scratch = OrbScratch::default();
        OrbExtractor::new(config.orb).extract_with(&first.gray, &mut scratch);
        println!("PROBE prefetched {}", result.prefetched);
        println!("PROBE telemetry {}", result.telemetry.is_some());
        println!(
            "PROBE backend_applied {}",
            result.backend.map_or(0, |b| b.applied)
        );
        println!("PROBE working_bytes {}", scratch.stream_working_bytes());
        for r in &result.reports {
            println!(
                "PROBE frame {} {:?} {} {} {:?}",
                r.index, r.pose_c2w, r.is_keyframe, r.inliers, r.extraction
            );
        }
        for pose in result.estimate.poses() {
            println!("PROBE estimate {pose:?}");
        }
    }

    /// Re-runs this test binary with every `ESLAM_*` variable removed
    /// and then `envs` set, executing only the ignored test `probe`.
    fn run_probe(probe: &str, envs: &[(&str, &str)]) -> std::process::Output {
        let mut cmd = std::process::Command::new(std::env::current_exe().unwrap());
        cmd.args([
            "--exact",
            "--ignored",
            "--nocapture",
            &format!("overrides::tests::{probe}"),
        ]);
        for (var, _) in std::env::vars_os() {
            if var.to_string_lossy().starts_with("ESLAM_") {
                cmd.env_remove(var);
            }
        }
        for (var, value) in envs {
            cmd.env(var, value);
        }
        cmd.output().expect("spawning the probe child must succeed")
    }

    /// The `PROBE` lines a successful child printed (the test harness
    /// adds timing lines around them).
    fn probe_lines(out: &std::process::Output) -> Vec<String> {
        assert!(out.status.success(), "probe failed: {out:?}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|line| line.starts_with("PROBE "))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn from_env_parses_the_full_override_set() {
        let out = run_probe(
            "ignored_from_env_probe",
            &[
                (PREFETCH_ENV, "off"),
                (BACKEND_ENV, "sync"),
                (BANDS_ENV, "4"),
                (TELEMETRY_ENV, " Counters "), // trimmed + case-insensitive
            ],
        );
        assert_eq!(
            probe_lines(&out),
            ["PROBE ESLAM_PREFETCH=off ESLAM_BACKEND=sync ESLAM_BANDS=4 ESLAM_TELEMETRY=counters"]
        );
    }

    #[test]
    fn typoed_values_fail_from_env_for_every_variable() {
        // A typo in any `ESLAM_*` toggle must abort the run up front
        // (the `axv2` regression class), never silently fall back.
        for (var, bad) in [
            (PREFETCH_ENV, "offf"),
            (BACKEND_ENV, "asink"),
            (BANDS_ENV, "two"),
            (BANDS_ENV, "0"), // zero bands is a typo, not a request
            (TELEMETRY_ENV, "fulll"),
        ] {
            let out = run_probe("ignored_from_env_probe", &[(var, bad)]);
            assert!(!out.status.success(), "{var}={bad} must fail from_env");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("unrecognised {var}=\"{bad}\"")),
                "{var}={bad}: panic message missing from {stderr}"
            );
        }
    }

    #[test]
    fn library_ignores_the_environment() {
        // Every toggle set to contradict the pinned config, plus the
        // retired matcher-kernel variable: the run must be exactly the
        // configured one, byte for byte.
        let steered = run_probe(
            "ignored_pinned_run_probe",
            &[
                (BACKEND_ENV, "off"),
                (BANDS_ENV, "4"),
                (TELEMETRY_ENV, "full"),
                (PREFETCH_ENV, "on"),
                ("ESLAM_MATCH_KERNEL", "scalar"),
            ],
        );
        let lines = probe_lines(&steered);
        let value = |key: &str| -> String {
            let prefix = format!("PROBE {key} ");
            let line = lines
                .iter()
                .find(|line| line.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no {key} line in {lines:?}"));
            line[prefix.len()..].to_string()
        };
        assert_eq!(value("prefetched"), "false", "PrefetchMode::Off ran");
        assert_eq!(value("telemetry"), "false", "TelemetryMode::Off ran");
        let applied: usize = value("backend_applied").parse().unwrap();
        assert!(applied >= 1, "BackendMode::Sync ran and refined");
        // One band per level, measured in this process on the same frame.
        let first = pinned_sequence().frames().next().expect("one frame");
        let mut scratch = OrbScratch::default();
        OrbExtractor::new(pinned_config().orb).extract_with(&first.gray, &mut scratch);
        assert_eq!(
            value("working_bytes"),
            scratch.stream_working_bytes().to_string(),
            "BandMode::Fixed(1) ran"
        );

        let clean = run_probe("ignored_pinned_run_probe", &[]);
        assert_eq!(
            lines,
            probe_lines(&clean),
            "the environment steered the run"
        );
    }
}
