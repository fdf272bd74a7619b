//! The one command-line parser of the workspace's binaries.
//!
//! Each binary declares its command line as [`Spec`]s: the `ldmo` CLI one
//! per subcommand, each bench bin one for itself. [`parse_env`] reads the
//! process's arguments once against that declaration and returns the
//! global options every binary takes ([`Globals`], resolved against their
//! environment fallbacks) beside the command's own flags and positionals
//! ([`Args`]). Libraries never read the process's arguments; they take
//! the parsed values.
//!
//! Anything the declaration does not allow is a usage error (exit 2)
//! that names the offending token, raised before the binary does any
//! work: an undeclared flag, a valued flag with no value (last on the
//! line, or followed by another flag), `--flag=value` (a value is its own
//! argument), and a positional beyond the command's count. A flag given
//! twice keeps its last value.

use crate::LdmoError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::str::FromStr;

/// The valued flags every command takes: the start-up applies them.
const GLOBAL_FLAGS: [&str; 3] = ["threads", "trace-out", "metrics-addr"];

/// One command's declared command line.
#[derive(Debug)]
pub struct Spec<'a> {
    name: &'a str,
    valued: &'a [&'a str],
    switches: &'a [&'a str],
    positionals: usize,
}

impl<'a> Spec<'a> {
    /// A command `name` taking the flags `valued` (`--seed 7`) and
    /// `switches` (`--reconcile`), both named without the leading `--`,
    /// and at most `positionals` positional arguments (`usize::MAX`: any).
    pub const fn new(
        name: &'a str,
        valued: &'a [&'a str],
        switches: &'a [&'a str],
        positionals: usize,
    ) -> Self {
        Spec {
            name,
            valued,
            switches,
            positionals,
        }
    }
}

/// The global options, each resolved against its environment fallback.
#[derive(Debug)]
pub struct Globals {
    /// `--threads N`, the worker-pool size. `None` keeps the pool's
    /// default (`LDMO_THREADS`, else the available parallelism).
    pub threads: Option<usize>,
    /// `--trace-out PATH`, else `LDMO_TRACE=1` with `LDMO_TRACE_OUT`
    /// (default `ldmo_trace.jsonl`). `-` streams the trace to stdout.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-addr HOST:PORT`, else a non-empty `LDMO_METRICS_ADDR`.
    pub metrics_addr: Option<String>,
}

/// One parsed command line.
#[derive(Debug)]
pub struct Args<'a> {
    spec: &'a Spec<'a>,
    /// The global options.
    pub globals: Globals,
    /// The positional arguments in order, without the subcommand name.
    pub positional: Vec<String>,
    /// Declared flags given: a switch maps to `None`.
    flags: HashMap<&'a str, Option<String>>,
}

impl<'a> Args<'a> {
    /// The name of the [`Spec`] the command line matched.
    pub fn command(&self) -> &'a str {
        self.spec.name
    }

    /// The value of the valued flag `flag`, if given. Panics when the
    /// command does not declare `flag`: the declaration and its reader
    /// disagree.
    pub fn value(&self, flag: &str) -> Option<&str> {
        assert!(
            self.spec.valued.contains(&flag),
            "{}: --{flag} undeclared",
            self.spec.name
        );
        self.flags.get(flag).and_then(Option::as_deref)
    }

    /// Whether the switch `flag` was given. Panics when the command does
    /// not declare `flag`.
    pub fn switch(&self, flag: &str) -> bool {
        assert!(
            self.spec.switches.contains(&flag),
            "{}: --{flag} undeclared",
            self.spec.name
        );
        self.flags.contains_key(flag)
    }

    /// The value of the valued flag `flag` as a number, if given.
    ///
    /// # Errors
    ///
    /// A usage error naming the flag and its value when it does not parse.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, LdmoError> {
        self.value(flag)
            .map(|v| parse_number(&format!("--{flag}"), v))
            .transpose()
    }
}

/// Parses `text` as a number; a usage error naming `label` and `text`
/// when it does not parse.
pub fn parse_number<T: FromStr>(label: &str, text: &str) -> Result<T, LdmoError> {
    text.parse()
        .map_err(|_| LdmoError::usage(format!("{label} '{text}' is not a valid number")))
}

/// Parses the process's arguments against `specs`. One spec is the whole
/// program; with several, the first argument names the subcommand and an
/// empty command line selects `specs[0]`.
///
/// # Errors
///
/// A usage error (see the module docs) naming the token at fault.
pub fn parse_env<'a>(specs: &'a [Spec<'a>]) -> Result<Args<'a>, LdmoError> {
    let env = |key: &str| std::env::var(key).ok();
    let mut tokens = std::env::args().skip(1);
    let spec = match specs {
        [only] => only,
        _ => match tokens.next() {
            None => &specs[0],
            Some(name) => specs.iter().find(|s| s.name == name).ok_or_else(|| {
                let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
                LdmoError::usage(format!(
                    "unknown subcommand '{name}' (one of: {})",
                    names.join(", ")
                ))
            })?,
        },
    };
    let usage = |detail: String| LdmoError::usage(format!("{}: {detail}", spec.name));
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    while let Some(token) = tokens.next() {
        let Some(flag) = token.strip_prefix("--") else {
            if positional.len() == spec.positionals {
                return Err(usage(format!("unexpected argument '{token}'")));
            }
            positional.push(token);
            continue;
        };
        if let Some((name, _)) = flag.split_once('=') {
            return Err(usage(format!(
                "'{token}': pass the value as its own argument (--{name} VALUE)"
            )));
        }
        if let Some(&name) = spec.switches.iter().find(|&&s| s == flag) {
            flags.insert(name, None);
            continue;
        }
        let valued = spec.valued.iter().chain(&GLOBAL_FLAGS);
        let Some(&name) = valued.clone().find(|&&s| s == flag) else {
            let known: Vec<&str> = valued.chain(spec.switches).copied().collect();
            return Err(usage(format!(
                "unknown flag '{token}' (takes --{})",
                known.join(", --")
            )));
        };
        match tokens.next().filter(|value| !value.starts_with("--")) {
            Some(value) => flags.insert(name, Some(value)),
            None => return Err(usage(format!("{token} needs a value"))),
        };
    }
    let given = |flag: &str| flags.get(flag).cloned().flatten();
    let globals = Globals {
        threads: given("threads")
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(LdmoError::usage(format!(
                    "--threads '{v}' is not a positive integer"
                ))),
            })
            .transpose()?,
        trace_out: given("trace-out")
            .or_else(|| {
                (env("LDMO_TRACE").as_deref() == Some("1"))
                    .then(|| env("LDMO_TRACE_OUT").unwrap_or_else(|| "ldmo_trace.jsonl".into()))
            })
            .map(PathBuf::from),
        metrics_addr: given("metrics-addr")
            .or_else(|| env("LDMO_METRICS_ADDR").filter(|a| !a.is_empty())),
    };
    Ok(Args {
        spec,
        globals,
        positional,
        flags,
    })
}
