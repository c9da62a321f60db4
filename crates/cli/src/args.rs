//! Minimal flag parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command-line: positional arguments plus `--key value` /
/// `--flag` options.
pub struct Parsed {
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

/// Splits `args` into positionals and options. `flags` lists the options
/// that take no value.
pub fn parse(args: &[String], flags: &[&str]) -> Result<Parsed, String> {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if flags.contains(&name) {
                options.insert(name.to_string(), String::from("true"));
            } else {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                options.insert(name.to_string(), value.clone());
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Ok(Parsed {
        positional,
        options,
    })
}

impl Parsed {
    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Refuses options outside `known`, naming the first offender: a
    /// mistyped or retired option is an error, not silently ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .min()
        {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    /// A boolean flag.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// A parsed numeric/typed option with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let p = parse(
            &argv(&["a.txt", "--n", "5", "--pairs", "b.txt"]),
            &["pairs"],
        )
        .unwrap();
        assert_eq!(p.positional, vec!["a.txt", "b.txt"]);
        assert_eq!(p.get("n"), Some("5"));
        assert!(p.flag("pairs"));
        assert!(!p.flag("quiet"));
    }

    #[test]
    fn typed_defaults() {
        let p = parse(&argv(&["--theta", "0.8"]), &[]).unwrap();
        assert_eq!(p.get_parsed("theta", 0.5).unwrap(), 0.8);
        assert_eq!(p.get_parsed("lambda", 0.01).unwrap(), 0.01);
        assert!(p.get_parsed::<f64>("theta", 0.5).is_ok());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--n"]), &[]).is_err());
    }

    #[test]
    fn bad_parse_is_an_error() {
        let p = parse(&argv(&["--n", "xyz"]), &[]).unwrap();
        assert!(p.get_parsed::<usize>("n", 1).is_err());
    }
}
