//! The workspace call graph.
//!
//! Built over every parsed file (see [`crate::parser`]), the graph
//! resolves call expressions to candidate workspace functions:
//!
//! * **Typed receivers** resolve exactly: the receiver chain is
//!   evaluated through struct fields, locals, parameters, type aliases
//!   and container elements; a chain that lands on a known workspace
//!   type either names one of its methods (one edge) or a std/deref
//!   method (no edge — a known type without the method cannot be a
//!   workspace call).
//! * **Untyped receivers** fall back to every workspace method of that
//!   name, *except* for a curated list of common std method names
//!   (`get`, `insert`, `lock`, …) whose fallback would drown the graph
//!   in false edges.
//! * **Qualified paths** (`Type::method`, `module::helper`) resolve
//!   through the type/alias table or the free-function table. A
//!   qualifier naming one of the caller's generic parameters
//!   (`W::table_for(…)`) resolves by method name like an untyped
//!   receiver; any other upper-case qualifier the workspace does not
//!   define is a foreign type (`Arc::new`) and resolves to nothing.
//!
//! The result is a deliberate over-approximation everywhere except
//! typed-receiver hits: extra edges cost chain noise, missing edges
//! cost soundness, and the fixture corpus locks the balance.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::lexer::Lexed;
use crate::parser::{Callee, ChainSeg, FileIndex, FnItem, LocalHint, TypeShape};
use crate::rules::{is_test_file, Allows, Frame};

/// One file's parsed artifacts, borrowed from the parse cache.
pub struct FileView<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    /// The lexed tokens/comments.
    pub lexed: &'a Lexed,
    /// The parsed item index.
    pub index: &'a FileIndex,
    /// The file's `// lint: allow(…)` annotations.
    pub(crate) allows: &'a Allows,
}

/// Method calls whose receiver keeps its type (`.lock()` yields a guard
/// that derefs to the inner value; normalization already strips the
/// guard layer, so the step is the identity).
const IDENTITY_METHODS: [&str; 12] = [
    "lock",
    "read",
    "write",
    "clone",
    "as_ref",
    "as_mut",
    "borrow",
    "borrow_mut",
    "into_inner",
    "unwrap",
    "expect",
    // `map_err` keeps the Ok side, which is what normalization keeps.
    "map_err",
];

/// Method calls that step a container shape to its element shape.
const ELEM_METHODS: [&str; 13] = [
    "values",
    "values_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "get",
    "get_mut",
    "first",
    "last",
    "front",
    "back",
    "pop",
    "remove",
];

/// Common std method names for which the untyped by-name fallback is
/// suppressed: resolving `x.insert(…)` to every workspace `insert`
/// would flood the graph with false edges. Workspace-specific names
/// (`stats`, `set_probe`, `record`, `inc`, `synthesize_cached`, …) are
/// deliberately absent so untyped calls to them still resolve.
const STD_METHOD_NAMES: [&str; 78] = [
    "lock",
    "read",
    "write",
    "try_lock",
    "get",
    "get_mut",
    "get_or_init",
    "set",
    "take",
    "replace",
    "with",
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "extend",
    "clear",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "entry",
    "keys",
    "values",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok_or",
    "ok_or_else",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "to_string",
    "to_owned",
    "to_vec",
    "clone",
    "collect",
    "filter",
    "fold",
    "sum",
    "count",
    "chain",
    "zip",
    "rev",
    "enumerate",
    "find",
    "any",
    "all",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "finish",
];

/// A function in the workspace graph.
pub struct GraphFn<'a> {
    /// Index into the view slice.
    pub file: usize,
    /// The parsed item.
    pub item: &'a FnItem,
}

/// The workspace call graph.
pub struct Graph<'a> {
    /// The per-file views, in workspace order.
    pub views: &'a [FileView<'a>],
    /// Every fn, flattened in (file, item) order — ids are indices.
    pub fns: Vec<GraphFn<'a>>,
    methods: HashMap<(String, String), Vec<usize>>,
    by_name_methods: HashMap<String, Vec<usize>>,
    free_fns: HashMap<String, Vec<usize>>,
    known_types: HashSet<String>,
    structs: HashMap<String, &'a HashMap<String, TypeShape>>,
    aliases: HashMap<String, TypeShape>,
    /// Lock field names in their declared acquisition order, lowest
    /// first: the first `// lint: lock-order(…)` annotation in workspace
    /// order (empty when the tree declares none).
    pub lock_order: Vec<String>,
}

impl<'a> Graph<'a> {
    /// Builds the graph over every parsed file.
    pub fn build(views: &'a [FileView<'a>]) -> Self {
        let mut g = Graph {
            views,
            fns: Vec::new(),
            methods: HashMap::new(),
            by_name_methods: HashMap::new(),
            free_fns: HashMap::new(),
            known_types: HashSet::new(),
            structs: HashMap::new(),
            aliases: HashMap::new(),
            lock_order: Vec::new(),
        };
        for (file_i, view) in views.iter().enumerate() {
            if g.lock_order.is_empty() {
                g.lock_order.clone_from(&view.allows.lock_order);
            }
            for name in &view.index.types {
                g.known_types.insert(name.clone());
            }
            for (name, fields) in &view.index.structs {
                g.structs.entry(name.clone()).or_insert(fields);
            }
            for (name, shape) in &view.index.aliases {
                g.aliases
                    .entry(name.clone())
                    .or_insert_with(|| shape.clone());
            }
            for item in &view.index.fns {
                let id = g.fns.len();
                g.fns.push(GraphFn { file: file_i, item });
                if let Some(ty) = &item.self_type {
                    g.methods
                        .entry((ty.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                    if let Some(tr) = &item.trait_name {
                        if tr != ty {
                            g.methods
                                .entry((tr.clone(), item.name.clone()))
                                .or_default()
                                .push(id);
                        }
                    }
                    g.by_name_methods
                        .entry(item.name.clone())
                        .or_default()
                        .push(id);
                } else {
                    g.free_fns.entry(item.name.clone()).or_default().push(id);
                }
            }
        }
        g
    }

    /// The rank of lock field `field`: its position in the declared
    /// order.
    pub fn lock_rank(&self, field: &str) -> Option<u32> {
        let at = self.lock_order.iter().position(|name| name == field)?;
        u32::try_from(at).ok()
    }

    /// The `Drop::drop` fn of workspace type `ty`, if it implements one.
    pub fn drop_glue(&self, ty: &str) -> Option<usize> {
        let ids = self.methods.get(&(ty.to_string(), "drop".to_string()))?;
        ids.iter()
            .copied()
            .find(|&id| self.item(id).trait_name.as_deref() == Some("Drop"))
    }

    /// The workspace-relative path of `fn_id`'s file.
    pub fn rel(&self, fn_id: usize) -> &str {
        self.views[self.fns[fn_id].file].rel
    }

    /// The parsed item of `fn_id`.
    pub fn item(&self, fn_id: usize) -> &FnItem {
        self.fns[fn_id].item
    }

    /// Whether `fn_id` is test code: a `#[cfg(test)]` / `#[test]` item,
    /// or any function in a file under `tests/`. No
    /// program path runs it, so no pass reaches or reports it (a trait
    /// method a test file implements resolves by name only).
    pub fn is_test(&self, fn_id: usize) -> bool {
        self.item(fn_id).is_test || is_test_file(self.rel(fn_id))
    }

    /// Allow-annotation lookup in `fn_id`'s file.
    pub fn allow(&self, fn_id: usize, line: u32, key: &str) -> Option<bool> {
        self.views[self.fns[fn_id].file].allows.lookup(line, key)
    }

    /// A rendered call-chain frame for a call/site at `line` in `fn_id`.
    pub fn frame(&self, fn_id: usize, line: u32) -> Frame {
        Frame {
            file: self.rel(fn_id).to_string(),
            line,
            function: self.item(fn_id).name.clone(),
        }
    }

    fn resolve_alias_head(&self, name: &str) -> TypeShape {
        let mut shape = TypeShape {
            head: name.to_string(),
            elem: None,
        };
        for _ in 0..4 {
            match self.aliases.get(&shape.head) {
                Some(target) if shape.elem.is_none() => shape = target.clone(),
                _ => break,
            }
        }
        shape
    }

    /// The last `binds` entry for `name` in `fn_id` (later bindings
    /// shadow earlier ones).
    fn local_hint(&self, fn_id: usize, name: &str) -> Option<&LocalHint> {
        self.item(fn_id)
            .binds
            .iter()
            .rev()
            .find(|b| b.name == name)
            .map(|b| &b.hint)
    }

    /// Evaluates an expression chain to a normalized type shape.
    pub fn eval_chain(&self, fn_id: usize, segs: &[ChainSeg], depth: u8) -> Option<TypeShape> {
        if depth == 0 {
            return None;
        }
        let mut iter = segs.iter();
        let mut shape = match iter.next()? {
            ChainSeg::SelfTok => self.resolve_alias_head(self.item(fn_id).self_type.as_deref()?),
            ChainSeg::Ident(name) => {
                if let Some(hint) = self.local_hint(fn_id, name) {
                    match hint {
                        LocalHint::Direct(s) => self.deref_shape(s.clone()),
                        LocalHint::Chain(c) => self.eval_chain(fn_id, c, depth - 1)?,
                        LocalHint::IterChain(c) => {
                            let s = self.eval_chain(fn_id, c, depth - 1)?;
                            match s.elem {
                                Some(elem) => *elem,
                                None => s,
                            }
                        }
                    }
                } else {
                    let resolved = self.resolve_alias_head(name);
                    if self.known_types.contains(&resolved.head) {
                        resolved
                    } else {
                        return None;
                    }
                }
            }
            ChainSeg::Call(_) | ChainSeg::Unknown => return None,
        };
        for seg in iter {
            shape = self.step(fn_id, shape, seg, depth)?;
        }
        Some(shape)
    }

    /// Re-resolves a shape's head through the alias table (parameter
    /// types may name an alias like `SynthesisEngine`).
    fn deref_shape(&self, shape: TypeShape) -> TypeShape {
        if shape.elem.is_some() {
            return shape;
        }
        self.resolve_alias_head(&shape.head)
    }

    fn step(
        &self,
        _fn_id: usize,
        shape: TypeShape,
        seg: &ChainSeg,
        depth: u8,
    ) -> Option<TypeShape> {
        match seg {
            ChainSeg::Ident(name) => {
                // Field access (numeric text handles tuple fields).
                let fields = self.structs.get(&shape.head)?;
                fields.get(name).map(|s| self.deref_shape(s.clone()))
            }
            ChainSeg::Call(m) => {
                if IDENTITY_METHODS.contains(&m.as_str()) {
                    return Some(shape);
                }
                if let Some(elem) = &shape.elem {
                    if ELEM_METHODS.contains(&m.as_str()) {
                        return Some(self.deref_shape((**elem).clone()));
                    }
                }
                let ids = self.methods.get(&(shape.head.clone(), m.clone()))?;
                ids.iter().find_map(|&id| {
                    let ret = self.item(id).ret_shape.as_ref()?;
                    if ret.head == "Self" {
                        Some(TypeShape {
                            head: shape.head.clone(),
                            elem: None,
                        })
                    } else if depth > 1 {
                        Some(self.deref_shape(ret.clone()))
                    } else {
                        None
                    }
                })
            }
            ChainSeg::SelfTok | ChainSeg::Unknown => None,
        }
    }

    /// Resolves one call site in `caller` to candidate workspace fns.
    /// Sound where it matters (typed hits are exact; untyped fallback
    /// over-approximates), empty for std calls.
    pub fn resolve(&self, caller: usize, callee: &Callee) -> Vec<usize> {
        match callee {
            Callee::Free { name } => self.free_fns.get(name).cloned().unwrap_or_default(),
            Callee::Path { qualifier, name } => {
                let Some(q) = qualifier else {
                    return Vec::new();
                };
                let q = if q == "Self" {
                    match self.item(caller).self_type.as_deref() {
                        Some(ty) => ty.to_string(),
                        None => return Vec::new(),
                    }
                } else {
                    q.clone()
                };
                if self.item(caller).generics.contains(&q) {
                    return self.by_name(name);
                }
                let q = self.resolve_alias_head(&q).head;
                if let Some(ids) = self.methods.get(&(q.clone(), name.clone())) {
                    return ids.clone();
                }
                if self.known_types.contains(&q) || q.starts_with(|c: char| c.is_ascii_uppercase())
                {
                    return Vec::new();
                }
                // `module::helper(…)` — a module path, not a type.
                self.free_fns.get(name).cloned().unwrap_or_default()
            }
            Callee::Method { name, recv } => {
                if let Some(shape) = self.eval_chain(caller, recv, 8) {
                    if let Some(ids) = self.methods.get(&(shape.head.clone(), name.clone())) {
                        return ids.clone();
                    }
                    if self.known_types.contains(&shape.head) {
                        return Vec::new();
                    }
                }
                self.by_name(name)
            }
        }
    }

    /// Every workspace method named `name`: the fallback for a callee
    /// whose type is unknown, suppressed for common std method names.
    fn by_name(&self, name: &str) -> Vec<usize> {
        if STD_METHOD_NAMES.contains(&name) {
            return Vec::new();
        }
        self.by_name_methods.get(name).cloned().unwrap_or_default()
    }

    /// Breadth-first reachability from `roots` over resolved call
    /// edges, skipping test fns and edges whose call line carries a
    /// reasoned `allow(<key>)`. Returns, for every reached fn, the call
    /// path from a nearest root: `(caller_fn, call_line)` pairs,
    /// outermost first (empty for the roots themselves).
    pub fn reach(&self, roots: &[usize], allow_key: &str) -> HashMap<usize, Vec<(usize, u32)>> {
        let mut parent: HashMap<usize, Option<(usize, u32)>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for call in &self.item(f).calls {
                if self.allow(f, call.line, allow_key) == Some(true) {
                    continue;
                }
                for g_id in self.resolve(f, &call.callee) {
                    if self.is_test(g_id) || parent.contains_key(&g_id) {
                        continue;
                    }
                    parent.insert(g_id, Some((f, call.line)));
                    queue.push_back(g_id);
                }
            }
        }
        parent
            .keys()
            .map(|&id| {
                let mut path = Vec::new();
                let mut cur = id;
                while let Some(Some((p, line))) = parent.get(&cur) {
                    path.push((*p, *line));
                    cur = *p;
                }
                path.reverse();
                (id, path)
            })
            .collect()
    }
}
