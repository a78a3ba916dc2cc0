//! `--flag value` argument parsing shared by the two binaries.

use std::collections::BTreeMap;

/// Flags parsed from a command line: every `--name` must be followed by a
/// value and must be one of `known`; bare words are positional.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    pub positional: Vec<String>,
}

impl Flags {
    pub fn parse(args: impl IntoIterator<Item = String>, known: &[&str]) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                None => flags.positional.push(arg),
                Some(name) if known.contains(&name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.values.insert(name.to_owned(), value);
                }
                Some(name) => return Err(format!("unknown flag --{name}")),
            }
        }
        Ok(flags)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The flag parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let f = Flags::parse(args("suite --seed 7 --seconds 2.5 x"), &["seed", "seconds"]).unwrap();
        assert_eq!(f.positional, ["suite", "x"]);
        assert_eq!(f.parsed("seed", 0u64), Ok(7));
        assert_eq!(f.parsed("seconds", 0.0), Ok(2.5));
        assert_eq!(f.parsed("runs", 3usize), Ok(3));
    }

    #[test]
    fn rejects_unknown_and_dangling_flags() {
        assert!(Flags::parse(args("--bogus 1"), &["seed"]).is_err());
        assert!(Flags::parse(args("--seed"), &["seed"]).is_err());
        let f = Flags::parse(args("--seed x"), &["seed"]).unwrap();
        assert!(f.parsed("seed", 0u64).is_err());
    }
}
