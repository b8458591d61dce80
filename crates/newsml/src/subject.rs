//! News categories and hierarchical subject codes.
//!
//! Two granularities, matching the paper's two subscription generations
//! (§7): a coarse [`Category`] enum that maps onto the per-publisher bitmask
//! of the early prototype, and hierarchical IPTC-style [`Subject`] codes
//! ("04003005"-like paths) that feed the Bloom-filter subject space.

use std::fmt;
use std::str::FromStr;

/// Coarse news categories, one bit each in the prototype's category mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// Politics and government.
    Politics = 0,
    /// Business, markets, finance.
    Business = 1,
    /// Technology (the Slashdot-configuration mainstay).
    Technology = 2,
    /// Science and research.
    Science = 3,
    /// Sports.
    Sports = 4,
    /// Entertainment and culture.
    Entertainment = 5,
    /// Health and medicine.
    Health = 6,
    /// International / world news.
    World = 7,
    /// Weather.
    Weather = 8,
    /// Security, defence.
    Security = 9,
    /// Law and justice.
    Law = 10,
    /// Education.
    Education = 11,
}

impl Category {
    /// All categories, in bit order.
    pub const ALL: [Category; 12] = [
        Category::Politics,
        Category::Business,
        Category::Technology,
        Category::Science,
        Category::Sports,
        Category::Entertainment,
        Category::Health,
        Category::World,
        Category::Weather,
        Category::Security,
        Category::Law,
        Category::Education,
    ];

    /// The bit index this category occupies in a category mask (see the
    /// `filters` crate's `CategoryMask`).
    pub fn bit(self) -> u8 {
        self as u8
    }

    /// Canonical lowercase name (used in subject keys and XML).
    pub fn name(self) -> &'static str {
        match self {
            Category::Politics => "politics",
            Category::Business => "business",
            Category::Technology => "technology",
            Category::Science => "science",
            Category::Sports => "sports",
            Category::Entertainment => "entertainment",
            Category::Health => "health",
            Category::World => "world",
            Category::Weather => "weather",
            Category::Security => "security",
            Category::Law => "law",
            Category::Education => "education",
        }
    }

    /// Category with the given bit index, if any.
    pub fn from_bit(bit: u8) -> Option<Category> {
        Category::ALL.get(bit as usize).copied()
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Category`] from its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCategoryError(String);

impl fmt::Display for ParseCategoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown news category `{}`", self.0)
    }
}
impl std::error::Error for ParseCategoryError {}

impl FromStr for Category {
    type Err = ParseCategoryError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Category::ALL
            .iter()
            .find(|c| c.name() == s)
            .copied()
            .ok_or_else(|| ParseCategoryError(s.to_owned()))
    }
}

/// A hierarchical IPTC-style subject code: a path of numeric components,
/// e.g. `04.003.005` = business / computing / open-source.
///
/// ```
/// use newsml::Subject;
/// let s: Subject = "04.003.005".parse()?;
/// assert!(s.is_descendant_of(&"04.003".parse()?));
/// assert_eq!(s.to_string(), "04.003.005");
/// # Ok::<(), newsml::ParseSubjectError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Subject {
    path: Vec<u16>,
}

impl Subject {
    /// Builds a subject from path components.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty.
    pub fn new(path: Vec<u16>) -> Self {
        assert!(!path.is_empty(), "subject path cannot be empty");
        Subject { path }
    }

    /// Path components, most general first.
    pub fn components(&self) -> &[u16] {
        &self.path
    }

    /// Depth of the code (1 = top-level).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// The immediate parent, or `None` for a top-level subject.
    pub fn parent(&self) -> Option<Subject> {
        if self.path.len() <= 1 {
            None
        } else {
            Some(Subject { path: self.path[..self.path.len() - 1].to_vec() })
        }
    }

    /// True when `self` equals `other` or lies below it in the taxonomy.
    pub fn is_descendant_of(&self, other: &Subject) -> bool {
        self.path.len() >= other.path.len() && self.path[..other.path.len()] == other.path[..]
    }

    /// Canonical string key for hashing into Bloom filters.
    pub fn key(&self) -> String {
        self.to_string()
    }

    /// All prefixes of this subject, most general first (used so a
    /// subscription to `04.003` matches an item tagged `04.003.005`).
    pub fn prefixes(&self) -> impl Iterator<Item = Subject> + '_ {
        (1..=self.path.len()).map(move |d| Subject { path: self.path[..d].to_vec() })
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Top level uses two digits, like IPTC codes; deeper levels three.
        if let Some((first, rest)) = self.path.split_first() {
            write!(f, "{first:02}")?;
            for c in rest {
                write!(f, ".{c:03}")?;
            }
        }
        Ok(())
    }
}

/// Error parsing a [`Subject`] code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSubjectError(String);

impl fmt::Display for ParseSubjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid subject code `{}`", self.0)
    }
}
impl std::error::Error for ParseSubjectError {}

impl FromStr for Subject {
    type Err = ParseSubjectError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseSubjectError(s.to_owned()));
        }
        let path: Result<Vec<u16>, _> = s.split('.').map(|p| p.parse::<u16>()).collect();
        match path {
            Ok(p) if !p.is_empty() => Ok(Subject { path: p }),
            _ => Err(ParseSubjectError(s.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_bits_are_dense_and_unique() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.bit() as usize, i);
            assert_eq!(Category::from_bit(c.bit()), Some(*c));
        }
        assert_eq!(Category::from_bit(12), None);
    }

    #[test]
    fn category_name_roundtrip() {
        for c in Category::ALL {
            assert_eq!(c.name().parse::<Category>().unwrap(), c);
        }
        assert!("gossip".parse::<Category>().is_err());
    }

    #[test]
    fn subject_parse_display_roundtrip() {
        for s in ["04", "04.003", "04.003.005", "11.000.999"] {
            let subj: Subject = s.parse().unwrap();
            assert_eq!(subj.to_string(), s);
        }
    }

    #[test]
    fn subject_display_pads_without_truncating() {
        assert_eq!(Subject::new(vec![7]).to_string(), "07");
        assert_eq!(Subject::new(vec![123, 7, 1000]).to_string(), "123.007.1000");
        assert_eq!(Subject::new(vec![0, 65535]).key(), "00.65535");
    }

    #[test]
    fn subject_hierarchy() {
        let leaf: Subject = "04.003.005".parse().unwrap();
        let mid: Subject = "04.003".parse().unwrap();
        let top: Subject = "04".parse().unwrap();
        let other: Subject = "05".parse().unwrap();
        assert!(leaf.is_descendant_of(&mid));
        assert!(leaf.is_descendant_of(&top));
        assert!(leaf.is_descendant_of(&leaf));
        assert!(!leaf.is_descendant_of(&other));
        assert_eq!(leaf.parent(), Some(mid));
        assert_eq!(top.parent(), None);
    }

    #[test]
    fn subject_prefixes_enumerate_ancestors() {
        let leaf: Subject = "04.003.005".parse().unwrap();
        let keys: Vec<String> = leaf.prefixes().map(|p| p.key()).collect();
        assert_eq!(keys, vec!["04", "04.003", "04.003.005"]);
    }

    #[test]
    fn subject_rejects_garbage() {
        for bad in ["", "a.b", "04..005", "04.", "-1"] {
            assert!(bad.parse::<Subject>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn subject_new_rejects_empty() {
        Subject::new(vec![]);
    }
}
