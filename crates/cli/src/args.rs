//! Tiny hand-rolled argument parser: positionals plus `--key value` /
//! `--flag` options. No external dependency needed for a dozen
//! subcommands.

use std::collections::HashMap;

/// Parsed command line: positionals in order, options by name.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
    /// Every name the command declared, flags and options alike.
    declared: Vec<String>,
}

impl Args {
    /// Parse `argv` against the command's declared names: `flag_names`
    /// take no value, `option_names` take the next word. Any other
    /// `--name` is refused, so a misspelt or retired option fails by
    /// name instead of silently swallowing the word after it.
    pub fn parse(
        argv: &[String],
        flag_names: &[&str],
        option_names: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args {
            declared: flag_names
                .iter()
                .chain(option_names)
                .map(|n| n.to_string())
                .collect(),
            ..Args::default()
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if flag_names.contains(&name) {
                    out.flags.push(name.to_string());
                } else if option_names.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("option --{name} needs a value"))?;
                    out.options.insert(name.to_string(), value.clone());
                } else {
                    return Err(format!("unknown option --{name}"));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// Reading a name the command never declared is a bug in the
    /// command: the parser would have refused it on the command line.
    fn check_declared(&self, name: &str) {
        debug_assert!(
            self.declared.iter().any(|d| d == name),
            "--{name} read but not declared"
        );
    }

    pub fn pos(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }

    pub fn opt(&self, name: &str) -> Option<&str> {
        self.check_declared(name);
        self.options.get(name).map(String::as_str)
    }

    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v:?}")),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.check_declared(name);
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_options() {
        let a = Args::parse(
            &argv(&["store", "f.bp", "--levels", "4", "--small", "var"]),
            &["small", "big"],
            &["levels"],
        )
        .unwrap();
        assert_eq!(a.pos(0, "store").unwrap(), "store");
        assert_eq!(a.pos(1, "file").unwrap(), "f.bp");
        assert_eq!(a.pos(2, "var").unwrap(), "var");
        assert_eq!(a.opt("levels"), Some("4"));
        assert!(a.flag("small"));
        assert!(!a.flag("big"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv(&["--levels"]), &[], &["levels"]).is_err());
    }

    #[test]
    fn undeclared_option_is_refused_by_name() {
        let err = Args::parse(&argv(&["--level", "5", "x"]), &[], &["levels"]).unwrap_err();
        assert_eq!(err, "unknown option --level");
        let err = Args::parse(
            &argv(&["--no-such-flag", "--workers", "2"]),
            &[],
            &["workers"],
        )
        .unwrap_err();
        assert_eq!(err, "unknown option --no-such-flag");
    }

    #[test]
    fn opt_parse_defaults_and_validates() {
        let a = Args::parse(&argv(&["--n", "7"]), &[], &["n", "m"]).unwrap();
        assert_eq!(a.opt_parse("n", 1u32).unwrap(), 7);
        assert_eq!(a.opt_parse("m", 3u32).unwrap(), 3);
        let bad = Args::parse(&argv(&["--n", "x"]), &[], &["n"]).unwrap();
        assert!(bad.opt_parse::<u32>("n", 1).is_err());
    }

    #[test]
    fn req_reports_missing() {
        let a = Args::parse(&argv(&[]), &[], &["mesh"]).unwrap();
        assert!(a.req("mesh").is_err());
        assert!(a.pos(0, "store").is_err());
    }
}
