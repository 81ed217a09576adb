//! Dimension hierarchies.
//!
//! A *dimension* structures the value domain of a filter column into a tree
//! (paper §2): each hierarchy has named *levels* at increasing granularity,
//! and *members* at each level. Level `0` is always the implicit root level
//! holding a single catch-all member (e.g. *"any college"*). Deeper levels
//! are the ones queries can group by or restrict to (e.g. *region*, *state*,
//! *specific institution* for the college dimension of the salary dataset).
//!
//! Fact rows reference **leaf** members (deepest level); coarser members are
//! reached via parent links. Ancestor tests — the core operation for scope
//! checks in the engine — cost `O(depth)` where depth is bounded by the
//! number of levels (at most 5 in the paper's datasets).

use crate::error::DataError;

/// Identifier of a member within one dimension's member arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemberId(pub u32);

impl MemberId {
    /// The root member of any dimension.
    pub const ROOT: MemberId = MemberId(0);

    /// Index into the member arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a level within one dimension (0 = root level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LevelId(pub u8);

impl LevelId {
    /// The root level.
    pub const ROOT: LevelId = LevelId(0);

    /// Index of the level (0 = root).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node in a dimension hierarchy.
#[derive(Debug, Clone)]
pub struct Member {
    /// Spoken phrase for this member, e.g. `"the North East"` or
    /// `"any college"` for the root.
    pub phrase: String,
    /// Level this member lives at.
    pub level: LevelId,
    /// Parent member; `None` only for the root.
    pub parent: Option<MemberId>,
    /// Children, in insertion order.
    pub children: Vec<MemberId>,
}

/// A dimension hierarchy: named levels plus a member tree.
///
/// Build one with [`DimensionBuilder`].
#[derive(Debug, Clone)]
pub struct Dimension {
    name: String,
    context: String,
    level_names: Vec<String>,
    members: Vec<Member>,
    /// Leaf members (deepest level), in insertion order. Fact rows index
    /// conceptually into this set via their `MemberId`.
    leaves: Vec<MemberId>,
}

impl Dimension {
    /// Machine-readable dimension name (e.g. `"start airport"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Spoken context template prefix used to embed member phrases,
    /// e.g. `"flights starting from"` (paper grammar symbol `<Dc>`).
    pub fn context(&self) -> &str {
        &self.context
    }

    /// Number of levels including the root level.
    pub fn level_count(&self) -> usize {
        self.level_names.len()
    }

    /// Deepest (leaf) level.
    pub fn leaf_level(&self) -> LevelId {
        LevelId((self.level_names.len() - 1) as u8)
    }

    /// Spoken name of a level (paper grammar symbol `<L>`),
    /// e.g. `"region"`.
    pub fn level_name(&self, level: LevelId) -> &str {
        &self.level_names[level.index()]
    }

    /// Resolve a level by its name.
    pub fn level_by_name(&self, name: &str) -> Result<LevelId, DataError> {
        self.level_names
            .iter()
            .position(|n| n == name)
            .map(|i| LevelId(i as u8))
            .ok_or_else(|| DataError::UnknownName { kind: "level", name: name.to_string() })
    }

    /// Access a member node.
    pub fn member(&self, id: MemberId) -> &Member {
        &self.members[id.index()]
    }

    /// Total number of members in the hierarchy.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Root member (level 0 catch-all, e.g. "any college").
    pub fn root(&self) -> MemberId {
        MemberId::ROOT
    }

    /// All members at a given level, in insertion order.
    pub fn level_members(&self, level: LevelId) -> Vec<MemberId> {
        (0..self.members.len())
            .map(|i| MemberId(i as u32))
            .filter(|m| self.members[m.index()].level == level)
            .collect()
    }

    /// All leaf members.
    pub fn leaves(&self) -> &[MemberId] {
        &self.leaves
    }

    /// Resolve a member by its phrase.
    pub fn member_by_phrase(&self, phrase: &str) -> Result<MemberId, DataError> {
        self.members
            .iter()
            .position(|m| m.phrase == phrase)
            .map(|i| MemberId(i as u32))
            .ok_or_else(|| DataError::UnknownName { kind: "member", name: phrase.to_string() })
    }

    /// `true` iff `ancestor` lies on the path from `descendant` to the root
    /// (a member is considered its own ancestor).
    pub fn is_ancestor_or_self(&self, ancestor: MemberId, descendant: MemberId) -> bool {
        let mut cur = descendant;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.members[cur.index()].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Path of member ids from the root (inclusive) to `member` (inclusive).
    pub fn path(&self, member: MemberId) -> Vec<MemberId> {
        let mut path = vec![member];
        let mut cur = member;
        while let Some(p) = self.members[cur.index()].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// All leaf members under `member` (inclusive if `member` is a leaf).
    pub fn leaves_under(&self, member: MemberId) -> Vec<MemberId> {
        let mut out = Vec::new();
        let mut stack = vec![member];
        while let Some(m) = stack.pop() {
            let node = &self.members[m.index()];
            if node.children.is_empty() {
                if node.level == self.leaf_level() {
                    out.push(m);
                }
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
        out.sort();
        out
    }

    /// Render the spoken predicate phrase for `member`
    /// (paper symbol `<P> ::= <Dc> <M>`), e.g.
    /// `"flights starting from the North East"`.
    pub fn predicate_phrase(&self, member: MemberId) -> String {
        format!("{} {}", self.context, self.members[member.index()].phrase)
    }

    /// Child of `parent` whose phrase is `phrase`, if any. Lookup is
    /// scoped to one parent so identical phrases in different subtrees
    /// (e.g. two states sharing a city name) stay distinct.
    pub fn child_by_phrase(&self, parent: MemberId, phrase: &str) -> Option<MemberId> {
        self.members[parent.index()]
            .children
            .iter()
            .copied()
            .find(|c| self.members[c.index()].phrase == phrase)
    }

    /// Append a new member under `parent` (one level deeper), extending
    /// the dictionary of a live dimension. Ids of existing members are
    /// never disturbed — the new member takes the next dense id, so packed
    /// fact columns referencing the old dictionary stay valid.
    pub fn extend_member(&mut self, parent: MemberId, phrase: &str) -> Result<MemberId, DataError> {
        let parent_level = self.members[parent.index()].level;
        let level = LevelId(parent_level.0 + 1);
        if level.index() >= self.level_names.len() {
            return Err(DataError::LevelMismatch {
                expected: self.leaf_level().index(),
                actual: level.index(),
            });
        }
        let id = MemberId(self.members.len() as u32);
        self.members.push(Member {
            phrase: phrase.to_string(),
            level,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.members[parent.index()].children.push(id);
        if level == self.leaf_level() {
            self.leaves.push(id);
        }
        Ok(id)
    }

    /// Resolve a full level-1-to-leaf phrase path to a leaf member,
    /// creating any members missing along the way. Returns the leaf id and
    /// the number of members created.
    pub fn resolve_or_extend_path(
        &mut self,
        path: &[impl AsRef<str>],
    ) -> Result<(MemberId, usize), DataError> {
        if path.len() != self.level_count() - 1 {
            return Err(DataError::LengthMismatch {
                expected: self.level_count() - 1,
                actual: path.len(),
            });
        }
        let mut cur = MemberId::ROOT;
        let mut created = 0usize;
        for phrase in path {
            cur = match self.child_by_phrase(cur, phrase.as_ref()) {
                Some(c) => c,
                None => {
                    created += 1;
                    self.extend_member(cur, phrase.as_ref())?
                }
            };
        }
        Ok((cur, created))
    }
}

/// Incremental builder for a [`Dimension`].
///
/// ```
/// use voxolap_data::dimension::DimensionBuilder;
///
/// let mut b = DimensionBuilder::new("college location", "graduates from", "any college");
/// let region = b.add_level("region");
/// let ne = b.add_member(region, b.root(), "the North East");
/// let state = b.add_level("state");
/// b.add_member(state, ne, "New York");
/// let dim = b.build();
/// assert_eq!(dim.level_count(), 3); // root + region + state
/// ```
#[derive(Debug, Clone)]
pub struct DimensionBuilder {
    dim: Dimension,
}

impl DimensionBuilder {
    /// Start a dimension with a root catch-all member.
    pub fn new(name: &str, context: &str, root_phrase: &str) -> Self {
        DimensionBuilder {
            dim: Dimension {
                name: name.to_string(),
                context: context.to_string(),
                level_names: vec!["all".to_string()],
                members: vec![Member {
                    phrase: root_phrase.to_string(),
                    level: LevelId::ROOT,
                    parent: None,
                    children: Vec::new(),
                }],
                leaves: Vec::new(),
            },
        }
    }

    /// The root member id (always [`MemberId::ROOT`]).
    pub fn root(&self) -> MemberId {
        MemberId::ROOT
    }

    /// Append a new (deeper) level and return its id.
    pub fn add_level(&mut self, name: &str) -> LevelId {
        self.dim.level_names.push(name.to_string());
        LevelId((self.dim.level_names.len() - 1) as u8)
    }

    /// Add a member at `level` under `parent`.
    ///
    /// # Panics
    /// Panics if `level` is not exactly one deeper than the parent's level —
    /// hierarchies must be built top-down, level by level.
    pub fn add_member(&mut self, level: LevelId, parent: MemberId, phrase: &str) -> MemberId {
        let parent_level = self.dim.members[parent.index()].level;
        assert_eq!(
            parent_level.index() + 1,
            level.index(),
            "member at level {} must have parent at level {}",
            level.index(),
            level.index() - 1
        );
        let id = MemberId(self.dim.members.len() as u32);
        self.dim.members.push(Member {
            phrase: phrase.to_string(),
            level,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.dim.members[parent.index()].children.push(id);
        id
    }

    /// Finalize the dimension, computing its leaf set.
    pub fn build(mut self) -> Dimension {
        let leaf_level = self.dim.leaf_level();
        self.dim.leaves = (0..self.dim.members.len())
            .map(|i| MemberId(i as u32))
            .filter(|m| self.dim.members[m.index()].level == leaf_level)
            .collect();
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dim() -> Dimension {
        let mut b = DimensionBuilder::new("college location", "graduates from", "any college");
        let region = b.add_level("region");
        let ne = b.add_member(region, b.root(), "the North East");
        let mw = b.add_member(region, b.root(), "the Midwest");
        let state = b.add_level("state");
        let ny = b.add_member(state, ne, "New York");
        b.add_member(state, ne, "Massachusetts");
        b.add_member(state, mw, "Ohio");
        let _ = ny;
        b.build()
    }

    #[test]
    fn builder_produces_levels_and_members() {
        let d = sample_dim();
        assert_eq!(d.level_count(), 3);
        assert_eq!(d.member_count(), 6); // root + 2 regions + 3 states
        assert_eq!(d.level_name(LevelId(1)), "region");
        assert_eq!(d.leaf_level(), LevelId(2));
        assert_eq!(d.leaves().len(), 3);
    }

    #[test]
    fn ancestor_checks() {
        let d = sample_dim();
        let ne = d.member_by_phrase("the North East").unwrap();
        let ny = d.member_by_phrase("New York").unwrap();
        let oh = d.member_by_phrase("Ohio").unwrap();
        assert!(d.is_ancestor_or_self(ne, ny));
        assert!(d.is_ancestor_or_self(d.root(), ny));
        assert!(d.is_ancestor_or_self(ny, ny));
        assert!(!d.is_ancestor_or_self(ne, oh));
        assert!(!d.is_ancestor_or_self(ny, ne));
    }

    #[test]
    fn path_runs_root_to_member() {
        let d = sample_dim();
        let ny = d.member_by_phrase("New York").unwrap();
        let p = d.path(ny);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], d.root());
        assert_eq!(p[2], ny);
    }

    #[test]
    fn leaves_under_region() {
        let d = sample_dim();
        let ne = d.member_by_phrase("the North East").unwrap();
        assert_eq!(d.leaves_under(ne).len(), 2);
        assert_eq!(d.leaves_under(d.root()).len(), 3);
    }

    #[test]
    fn predicate_phrase_embeds_member() {
        let d = sample_dim();
        let ne = d.member_by_phrase("the North East").unwrap();
        assert_eq!(d.predicate_phrase(ne), "graduates from the North East");
        assert_eq!(d.predicate_phrase(d.root()), "graduates from any college");
    }

    #[test]
    fn level_members_by_level() {
        let d = sample_dim();
        assert_eq!(d.level_members(LevelId::ROOT).len(), 1);
        assert_eq!(d.level_members(LevelId(1)).len(), 2);
        assert_eq!(d.level_members(LevelId(2)).len(), 3);
    }

    #[test]
    fn unknown_names_error() {
        let d = sample_dim();
        assert!(d.member_by_phrase("Atlantis").is_err());
        assert!(d.level_by_name("continent").is_err());
    }

    #[test]
    #[should_panic(expected = "must have parent")]
    fn skipping_levels_panics() {
        let mut b = DimensionBuilder::new("d", "c", "any");
        let _l1 = b.add_level("one");
        let l2 = b.add_level("two");
        // Parent is root (level 0) but member claims level 2.
        b.add_member(l2, b.root(), "bad");
    }
}
