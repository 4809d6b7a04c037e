//! One typed surface over every `ESLAM_*` environment override.
//!
//! The system honours six process-wide toggles, each read **once**
//! (cached behind a `OnceLock` at its point of use) so a run cannot
//! change behaviour mid-flight:
//!
//! | variable | values | forces |
//! |---|---|---|
//! | `ESLAM_MATCH_KERNEL` | `auto`, `scalar`, `popcnt`, `avx2`, `avx512` | the Hamming-matcher SIMD rung |
//! | `ESLAM_PREFETCH` | `auto`, `on`/`1`/`true`, `off`/`0`/`false` | frame-source double-buffered prefetch |
//! | `ESLAM_BACKEND` | `auto`, `off`, `sync`, `async` | keyframe-backend execution mode |
//! | `ESLAM_BANDS` | `auto`, a positive integer | the per-level row-band count of the streaming extractor |
//! | `ESLAM_TELEMETRY` | `auto`, `off`, `counters`, `full` | the telemetry recording mode |
//! | `ESLAM_ATLAS` | a filesystem path | the atlas file sessions load at start |
//!
//! All six share one parse contract (implemented in
//! `eslam_features::envopt`): unset, empty and `auto` mean "no
//! override"; keyword values are trimmed and case-insensitive
//! (`ESLAM_ATLAS` is trimmed only — paths are case-sensitive); and an
//! unrecognised value panics up front with the accepted spellings,
//! never silently falling back.
//!
//! [`Overrides::from_env`] parses and validates the whole set in one
//! shot — harness binaries call it at startup so a typo'd variable
//! fails the run before any frames are processed — and
//! [`Overrides::report`] renders the active set for logs.

use std::path::PathBuf;

use eslam_backend::BackendMode;
use eslam_features::envopt;
use eslam_features::matcher::MatchKernel;
use eslam_telemetry::TelemetryMode;

/// Environment variable naming an atlas file for sessions to load.
pub const ATLAS_ENV: &str = "ESLAM_ATLAS";

/// Re-export of the prefetch variable name, for discoverability
/// alongside the others.
pub use crate::config::PREFETCH_ENV;
/// Re-export of the telemetry-mode variable name.
pub use crate::config::TELEMETRY_ENV;
/// Re-export of the backend-mode variable name.
pub use eslam_backend::BACKEND_ENV;
/// Re-export of the match-kernel variable name.
pub use eslam_features::matcher::MATCH_KERNEL_ENV;
/// Re-export of the row-band-count variable name.
pub use eslam_features::stream::BANDS_ENV;

/// The full set of environment overrides, parsed and validated.
/// `None` everywhere means "defer to configuration/detection".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Overrides {
    /// Forced Hamming-matcher kernel rung, from `ESLAM_MATCH_KERNEL`.
    pub match_kernel: Option<MatchKernel>,
    /// Forced prefetch decision, from `ESLAM_PREFETCH`.
    pub prefetch: Option<bool>,
    /// Forced backend execution mode, from `ESLAM_BACKEND`.
    pub backend: Option<BackendMode>,
    /// Forced per-level row-band count, from `ESLAM_BANDS`.
    pub bands: Option<usize>,
    /// Forced telemetry recording mode, from `ESLAM_TELEMETRY`.
    pub telemetry: Option<TelemetryMode>,
    /// Atlas file to load, from `ESLAM_ATLAS`.
    pub atlas: Option<PathBuf>,
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
            match_kernel: envopt::forced(
                MATCH_KERNEL_ENV,
                "auto, scalar, popcnt, avx2 or avx512",
                MatchKernel::from_name,
            ),
            prefetch: envopt::forced(PREFETCH_ENV, "auto, on or off", |value| match value {
                "on" | "1" | "true" => Some(true),
                "off" | "0" | "false" => Some(false),
                _ => None,
            }),
            backend: envopt::forced(
                BACKEND_ENV,
                "auto, off, sync or async",
                |value| match value {
                    "off" => Some(BackendMode::Off),
                    "sync" => Some(BackendMode::Sync),
                    "async" => Some(BackendMode::Async),
                    _ => None,
                },
            ),
            bands: envopt::forced(BANDS_ENV, "auto or a positive band count", |value| {
                value.parse::<usize>().ok().filter(|n| *n >= 1)
            }),
            telemetry: envopt::forced(
                TELEMETRY_ENV,
                "auto, off, counters or full",
                TelemetryMode::parse,
            ),
            atlas: atlas_path(),
        }
    }

    /// One line per variable, `auto` for unset — for run headers and
    /// CI logs.
    pub fn report(&self) -> String {
        let kernel = self.match_kernel.map_or("auto", |k| k.name()).to_string();
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
        let atlas = self
            .atlas
            .as_ref()
            .map_or_else(|| "unset".to_string(), |p| p.display().to_string());
        format!(
            "{MATCH_KERNEL_ENV}={kernel} {PREFETCH_ENV}={prefetch} \
             {BACKEND_ENV}={backend} {BANDS_ENV}={bands} \
             {TELEMETRY_ENV}={telemetry} {ATLAS_ENV}={atlas}"
        )
    }
}

/// The atlas path named by [`ATLAS_ENV`], when set and non-empty.
/// Trimmed but **not** lowercased (paths are case-sensitive) and with
/// no `auto` keyword (a file could legitimately be named `auto`).
pub fn atlas_path() -> Option<PathBuf> {
    envopt::raw_value(ATLAS_ENV).map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_the_inactive_set() {
        let overrides = Overrides::default();
        assert_eq!(
            overrides.report(),
            "ESLAM_MATCH_KERNEL=auto ESLAM_PREFETCH=auto ESLAM_BACKEND=auto \
             ESLAM_BANDS=auto ESLAM_TELEMETRY=auto ESLAM_ATLAS=unset"
        );
    }

    #[test]
    fn report_renders_an_active_set() {
        let overrides = Overrides {
            match_kernel: Some(MatchKernel::Scalar),
            prefetch: Some(false),
            backend: Some(BackendMode::Async),
            bands: Some(3),
            telemetry: Some(TelemetryMode::Full),
            atlas: Some(PathBuf::from("/maps/office.atlas")),
        };
        assert_eq!(
            overrides.report(),
            "ESLAM_MATCH_KERNEL=scalar ESLAM_PREFETCH=off ESLAM_BACKEND=async \
             ESLAM_BANDS=3 ESLAM_TELEMETRY=full ESLAM_ATLAS=/maps/office.atlas"
        );
    }

    /// Child body of the subprocess tests below: parses the environment
    /// and prints the resulting report. Run only when spawned with
    /// `--ignored` — env-var parsing cannot be exercised in-process
    /// because variables are process-global and tests run in parallel.
    #[test]
    #[ignore = "spawned as a child process by the from_env tests"]
    fn ignored_from_env_probe() {
        println!("PROBE {}", Overrides::from_env().report());
    }

    /// Re-runs this test binary with a controlled environment, executing
    /// only [`ignored_from_env_probe`].
    fn run_probe(envs: &[(&str, &str)]) -> std::process::Output {
        let mut cmd = std::process::Command::new(std::env::current_exe().unwrap());
        cmd.args([
            "--exact",
            "--ignored",
            "--nocapture",
            "overrides::tests::ignored_from_env_probe",
        ]);
        for var in [
            MATCH_KERNEL_ENV,
            PREFETCH_ENV,
            BACKEND_ENV,
            BANDS_ENV,
            TELEMETRY_ENV,
            ATLAS_ENV,
        ] {
            cmd.env_remove(var);
        }
        for (var, value) in envs {
            cmd.env(var, value);
        }
        cmd.output().expect("spawning the probe child must succeed")
    }

    #[test]
    fn from_env_parses_the_full_override_set() {
        let out = run_probe(&[
            (MATCH_KERNEL_ENV, "scalar"),
            (PREFETCH_ENV, "off"),
            (BACKEND_ENV, "sync"),
            (BANDS_ENV, "4"),
            (TELEMETRY_ENV, " Counters "), // trimmed + case-insensitive
            (ATLAS_ENV, "/maps/office.atlas"),
        ]);
        assert!(out.status.success(), "probe failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(
                "PROBE ESLAM_MATCH_KERNEL=scalar ESLAM_PREFETCH=off ESLAM_BACKEND=sync \
                 ESLAM_BANDS=4 ESLAM_TELEMETRY=counters ESLAM_ATLAS=/maps/office.atlas"
            ),
            "unexpected probe output: {stdout}"
        );
    }

    #[test]
    fn typoed_values_fail_from_env_for_every_variable() {
        // A typo in any `ESLAM_*` toggle must abort the run up front
        // (the `axv2` regression class), never silently fall back.
        for (var, bad) in [
            (MATCH_KERNEL_ENV, "axv2"),
            (PREFETCH_ENV, "offf"),
            (BACKEND_ENV, "asink"),
            (BANDS_ENV, "two"),
            (BANDS_ENV, "0"), // zero bands is a typo, not a request
            (TELEMETRY_ENV, "fulll"),
        ] {
            let out = run_probe(&[(var, bad)]);
            assert!(!out.status.success(), "{var}={bad} must fail from_env");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("unrecognised {var}=\"{bad}\"")),
                "{var}={bad}: panic message missing from {stderr}"
            );
        }
    }
}
