//! The declarative flag table behind every `albireo` subcommand.
//!
//! A command lists each flag once — name, [`Kind`], default, one help
//! line — and that table alone parses the command line (rejecting
//! unknown flags, repeated flags, stray positionals and out-of-range
//! values with a typed [`ArgError`]), serves defaults to the command
//! body, and renders `--help`.

use std::collections::BTreeMap;
use std::fmt;

/// An interval of finite floats; either end may be open.
#[derive(Debug, Clone, Copy)]
pub struct Range {
    lo: f64,
    lo_open: bool,
    hi: f64,
    hi_open: bool,
}

impl Range {
    /// `x > lo`.
    pub const fn above(lo: f64) -> Range {
        Range::between(lo, true, f64::INFINITY, true)
    }

    /// `x >= lo`.
    pub const fn at_least(lo: f64) -> Range {
        Range::between(lo, false, f64::INFINITY, true)
    }

    /// From `lo` to `hi`, each end open or closed.
    pub const fn between(lo: f64, lo_open: bool, hi: f64, hi_open: bool) -> Range {
        Range {
            lo,
            lo_open,
            hi,
            hi_open,
        }
    }

    fn contains(&self, x: f64) -> bool {
        (x > self.lo || (!self.lo_open && x == self.lo))
            && (x < self.hi || (!self.hi_open && x == self.hi))
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.lo_open, self.hi.is_infinite()) {
            (true, true) => write!(f, "> {}", self.lo),
            (false, true) => write!(f, ">= {}", self.lo),
            _ => {
                let (open, close) = (
                    if self.lo_open { '(' } else { '[' },
                    if self.hi_open { ')' } else { ']' },
                );
                write!(f, "in {open}{}, {}{close}", self.lo, self.hi)
            }
        }
    }
}

/// What a flag's value must look like.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A switch that takes no value.
    Bool,
    /// Free text — a path, a name or a spec line; the metavar for help.
    Str(&'static str),
    /// An unsigned integer no smaller than `min`.
    Int { min: u64 },
    /// A finite float inside a range.
    Float(Range),
    /// A comma-separated list of unsigned integers, each at least `min`.
    Ints { min: u64 },
    /// A comma-separated list of names or specs; the metavar for help.
    List(&'static str),
}

impl Kind {
    fn metavar(&self) -> &'static str {
        match self {
            Kind::Bool => "",
            Kind::Str(meta) | Kind::List(meta) => meta,
            Kind::Int { .. } => "N",
            Kind::Float(_) => "X",
            Kind::Ints { .. } => "N,N,..",
        }
    }

    /// The constraint shown in help, if any.
    fn constraint(&self) -> Option<String> {
        match self {
            Kind::Int { min } | Kind::Ints { min } if *min > 0 => Some(format!(">= {min}")),
            Kind::Float(range) => Some(range.to_string()),
            _ => None,
        }
    }

    /// Checks one raw value against the kind.
    fn check(&self, flag: &'static str, value: &str) -> Result<(), ArgError> {
        let invalid = |expected: String| ArgError::Invalid(flag, value.to_string(), expected);
        let int = |piece: &str, min: u64| match piece.trim().parse::<u64>() {
            Ok(n) if n >= min => Ok(()),
            Ok(_) => Err(invalid(format!("an integer >= {min}"))),
            Err(_) => Err(invalid("an unsigned integer".into())),
        };
        match self {
            Kind::Bool | Kind::Str(_) => Ok(()),
            Kind::Int { min } => int(value, *min),
            Kind::Float(range) => match value.trim().parse::<f64>() {
                Ok(x) if x.is_finite() && range.contains(x) => Ok(()),
                _ => Err(invalid(format!("a finite number {range}"))),
            },
            Kind::Ints { min } => value.split(',').try_for_each(|piece| int(piece, *min)),
            Kind::List(_) if value.split(',').all(|piece| piece.trim().is_empty()) => {
                Err(invalid("a non-empty list".into()))
            }
            Kind::List(_) => Ok(()),
        }
    }
}

/// One entry of a command's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value's kind.
    pub kind: Kind,
    /// The value used when the flag is absent (valid for `kind`).
    pub default: Option<&'static str>,
    /// One help line.
    pub help: &'static str,
}

/// A flag with no default.
pub const fn flag(name: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        default: None,
        help,
    }
}

impl Flag {
    /// The same flag with a default value.
    pub const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    fn help_line(&self) -> String {
        let head = format!("--{} {}", self.name, self.kind.metavar());
        let head = head.trim_end();
        let notes: Vec<String> = (self.default.map(|d| format!("default {d}")).into_iter())
            .chain(self.kind.constraint())
            .collect();
        let notes = match notes.is_empty() {
            true => String::new(),
            false => format!(" ({})", notes.join("; ")),
        };
        // Long heads push the help text under the column.
        let gap = match head.chars().count() > 28 {
            true => format!("\n{:32}", ""),
            false => String::new(),
        };
        format!("    {head:<28}{gap} {}{notes}\n", self.help)
    }
}

/// Renders the help table of flag groups.
pub fn render_flags(groups: &[&[Flag]]) -> String {
    groups
        .iter()
        .flat_map(|g| g.iter())
        .map(Flag::help_line)
        .collect()
}

/// Command-line errors; every one is a usage error (exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` the command does not declare, and the nearest one it does.
    UnknownFlag(String, Option<&'static str>),
    /// A flag given more than once.
    Repeated(&'static str),
    /// A positional argument beyond the command's synopsis.
    UnexpectedPositional(String),
    /// A required positional argument is missing.
    MissingPositional(&'static str),
    /// A valued flag ended the command line.
    MissingValue(&'static str),
    /// A flag the command needs was not given.
    MissingOption(&'static str),
    /// A value of the wrong shape or range: flag, value, what was expected.
    Invalid(&'static str, String, String),
    /// Flags that cannot be combined.
    Conflict(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag, None) => write!(f, "unknown flag --{flag}"),
            ArgError::UnknownFlag(flag, Some(near)) => {
                write!(f, "unknown flag --{flag} (did you mean --{near}?)")
            }
            ArgError::Repeated(flag) => write!(f, "flag --{flag} given more than once"),
            ArgError::UnexpectedPositional(value) => write!(f, "unexpected argument `{value}`"),
            ArgError::MissingPositional(name) => write!(f, "missing argument {name}"),
            ArgError::MissingValue(flag) => write!(f, "option --{flag} requires a value"),
            ArgError::MissingOption(flag) => write!(f, "missing required option --{flag}"),
            ArgError::Invalid(flag, value, expected) => {
                write!(
                    f,
                    "invalid value `{value}` for --{flag}: expected {expected}"
                )
            }
            ArgError::Conflict(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Edit distance, for "did you mean" suggestions.
fn distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// A parsed, validated command line.
#[derive(Debug, Clone)]
pub struct Args {
    flags: Vec<&'static Flag>,
    given: BTreeMap<&'static str, String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the command words) against `groups`:
    /// exactly `positionals.len()` positional arguments, each flag at
    /// most once, every value checked against its kind.
    pub fn parse(
        groups: &[&'static [Flag]],
        positionals: &[&'static str],
        argv: &[String],
    ) -> Result<Args, ArgError> {
        let mut args = Args {
            flags: groups.iter().flat_map(|g| g.iter()).collect(),
            given: BTreeMap::new(),
            positionals: Vec::new(),
        };
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if args.positionals.len() == positionals.len() {
                    return Err(ArgError::UnexpectedPositional(arg.clone()));
                }
                args.positionals.push(arg.clone());
                continue;
            };
            let Some(flag) = args.flags.iter().copied().find(|f| f.name == name) else {
                let near = args
                    .flags
                    .iter()
                    .map(|f| (distance(name, f.name), f.name))
                    .filter(|&(d, _)| d <= 2)
                    .min()
                    .map(|(_, n)| n);
                return Err(ArgError::UnknownFlag(name.to_string(), near));
            };
            if args.given.contains_key(flag.name) {
                return Err(ArgError::Repeated(flag.name));
            }
            let value = match flag.kind {
                Kind::Bool => String::new(),
                _ => iter
                    .next()
                    .ok_or(ArgError::MissingValue(flag.name))?
                    .clone(),
            };
            flag.kind.check(flag.name, &value)?;
            args.given.insert(flag.name, value);
        }
        match positionals.get(args.positionals.len()) {
            Some(name) => Err(ArgError::MissingPositional(name)),
            None => Ok(args),
        }
    }

    /// A flag's value: the given one, else the default. Panics on a flag
    /// the command does not declare (a bug the help-coverage test catches).
    pub fn str(&self, name: &str) -> Option<&str> {
        let flag = self.flags.iter().find(|f| f.name == name);
        let flag = flag.unwrap_or_else(|| panic!("flag --{name} is read but not declared"));
        self.given.get(name).map(String::as_str).or(flag.default)
    }

    /// Positional arguments in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// A flag's value only if it was given on the command line.
    pub fn given(&self, name: &str) -> Option<&str> {
        self.given.get(name).map(String::as_str)
    }

    /// The first flag of `group` given on the command line.
    pub fn first_given(&self, group: &[Flag]) -> Option<&'static str> {
        group
            .iter()
            .map(|f| f.name)
            .find(|n| self.given.contains_key(n))
    }

    /// Whether a switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.str(name).is_some()
    }

    /// A text value the command cannot run without.
    pub fn required(&self, name: &'static str) -> Result<&str, ArgError> {
        self.str(name).ok_or(ArgError::MissingOption(name))
    }

    /// A numeric value (given or default), validated at parse time.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.str(name).map(|v| match v.trim().parse() {
            Ok(x) => x,
            Err(_) => unreachable!("--{name} was validated at parse time"),
        })
    }

    /// A numeric value that has a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> T {
        self.num(name).expect("numeric flag has a default")
    }

    /// An integer list (given or default), validated at parse time.
    pub fn ints(&self, name: &str) -> Option<Vec<usize>> {
        let parse = |p: &str| p.trim().parse().expect("validated");
        self.str(name).map(|v| v.split(',').map(parse).collect())
    }

    /// The non-empty trimmed pieces of a list value split on any of
    /// `separators` (empty when absent with no default).
    pub fn list(&self, name: &str, separators: &[char]) -> Vec<&str> {
        let pieces = self.str(name).map(|v| v.split(separators).map(str::trim));
        pieces
            .into_iter()
            .flatten()
            .filter(|p| !p.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[rustfmt::skip]
    const TABLE: &[Flag] = &[
        flag("ng", Kind::Int { min: 1 }, "PLCG count").or("9"),
        flag("k2", Kind::Float(Range::between(0.0, true, 1.0, true)), "coupling").or("0.03"),
        flag("json", Kind::Bool, "emit JSON"),
        flag("values", Kind::Ints { min: 1 }, "values"),
        flag("out", Kind::Str("FILE"), "output file"),
    ];

    fn parse(line: &str) -> Result<Args, ArgError> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse(&[TABLE], &["<network>"], &argv)
    }

    #[test]
    fn positionals_options_and_defaults() {
        let a = parse("vgg16 --ng 27 --json").unwrap();
        assert_eq!(a.positionals(), &["vgg16".to_string()]);
        assert_eq!(a.get::<usize>("ng"), 27);
        assert_eq!(a.num::<f64>("k2"), Some(0.03));
        assert!(a.flag("json"));
        assert_eq!(a.str("out"), None);
        assert_eq!(a.given("ng"), Some("27"));
        assert_eq!(a.given("k2"), None);
    }

    #[test]
    fn lists_parse() {
        let a = parse("x --values 3,9,27").unwrap();
        assert_eq!(a.ints("values"), Some(vec![3, 9, 27]));
        assert!(parse("x --values 3,0").is_err());
        assert!(parse("x --values ,").is_err());
    }

    #[test]
    fn rejects_bad_command_lines() {
        let near = parse("x --nng 3").unwrap_err();
        assert_eq!(near, ArgError::UnknownFlag("nng".into(), Some("ng")));
        assert_eq!(
            parse("x --ng 3 --ng 4").unwrap_err(),
            ArgError::Repeated("ng")
        );
        assert!(matches!(
            parse("x y"),
            Err(ArgError::UnexpectedPositional(_))
        ));
        assert!(matches!(parse(""), Err(ArgError::MissingPositional(_))));
        assert_eq!(parse("x --ng").unwrap_err(), ArgError::MissingValue("ng"));
        for bad in ["--ng 0", "--ng lots", "--k2 1", "--k2 nan", "--k2 inf"] {
            let err = parse(&format!("x {bad}")).unwrap_err();
            assert!(err.to_string().contains(&bad[5..]), "{err}");
        }
    }

    #[test]
    fn help_shows_metavar_default_and_range() {
        let help = render_flags(&[TABLE]);
        assert!(help.contains("--ng N"), "{help}");
        assert!(help.contains("default 9; >= 1"), "{help}");
        assert!(help.contains("in (0, 1)"), "{help}");
    }
}
