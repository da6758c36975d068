//! A hand-rolled item/expression-level parser over the token stream.
//!
//! The interprocedural passes need just enough structure to build a
//! workspace call graph: function items (with impl/trait attribution
//! and parameter/return types), struct field types, type aliases, and
//! call expressions with their receiver chains. Everything is recovered
//! from the [`crate::lexer`] token stream in one linear walk — no `syn`,
//! no allocation of a real AST. The parser is deliberately tolerant:
//! anything it cannot classify is skipped, and downstream resolution
//! treats missing information as "unknown" rather than guessing.

use std::collections::HashMap;

use crate::lexer::{Lexed, Token, TokenKind};

/// A normalized type: smart pointers, lock wrappers, and `Result`/
/// `Option` layers are stripped so `Arc<RwLock<SearchEngine<W>>>`
/// and `SearchEngine` compare equal; containers keep their element
/// shape so `.values()`/`.iter()` can be followed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeShape {
    /// The innermost type name (`SearchEngine`, `HashMap`, …).
    pub head: String,
    /// `Some` when `head` is a container: the normalized element (map
    /// value) shape.
    pub elem: Option<Box<TypeShape>>,
}

/// One segment of an expression chain (`self.hosts.lock()` is
/// `[SelfTok, Ident("hosts"), Call("lock")]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainSeg {
    /// The `self` receiver.
    SelfTok,
    /// A field access, local variable, or leading type name.
    Ident(String),
    /// A method call `.name(…)`.
    Call(String),
    /// A sub-expression the parser could not follow; poisons typing.
    Unknown,
}

/// What a call expression targets.
#[derive(Debug, Clone)]
pub enum Callee {
    /// `recv.name(…)` — `recv` is the receiver chain, innermost last.
    Method {
        /// The method name.
        name: String,
        /// The receiver chain.
        recv: Vec<ChainSeg>,
    },
    /// `Type::name(…)` / `module::name(…)`.
    Path {
        /// The qualifying segment right before the name, if any.
        qualifier: Option<String>,
        /// The called name.
        name: String,
    },
    /// A bare `name(…)` call.
    Free {
        /// The called name.
        name: String,
    },
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Token index of the callee name (liveness walks key on this).
    pub tok: usize,
    /// `true` when the argument list is empty (`.lock()` vs
    /// `.read(&mut buf)` — lock acquisitions take no arguments).
    pub empty_args: bool,
}

/// How a local variable got its type.
#[derive(Debug, Clone)]
pub enum LocalHint {
    /// Explicit annotation or parameter type.
    Direct(TypeShape),
    /// Bound to the value of an expression chain.
    Chain(Vec<ChainSeg>),
    /// Bound to one *element* of an iterated chain (`for x in …`,
    /// iterator-adapter closure parameters).
    IterChain(Vec<ChainSeg>),
}

/// A typed local binding (parameter, `let`, `for`, or closure param).
#[derive(Debug, Clone)]
pub struct LocalBind {
    /// The bound name.
    pub name: String,
    /// Where its type comes from.
    pub hint: LocalHint,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// The impl/trait self type (`None` for free and nested fns).
    pub self_type: Option<String>,
    /// The trait being implemented/declared, if any.
    pub trait_name: Option<String>,
    /// Type-parameter names in scope: the fn header's own plus, for a
    /// method, its impl header's (`impl<W> Host<W> { fn f<T>() }` →
    /// `["W", "T"]`).
    pub generics: Vec<String>,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Token index of the name (for test-span membership).
    pub name_tok: usize,
    /// Token indices of the body's `{` and `}` (`None` for decls).
    pub body: Option<(usize, usize)>,
    /// Typed parameters and locals, in binding order.
    pub binds: Vec<LocalBind>,
    /// Normalized return type.
    pub ret_shape: Option<TypeShape>,
    /// `true` when the return type mentions a `*Guard*` identifier —
    /// the function hands a held lock guard back to its caller.
    pub ret_mentions_guard: bool,
    /// Call expressions in the body, in source order (excluding nested
    /// fn bodies, which get their own items).
    pub calls: Vec<CallSite>,
    /// Indices (into [`FileIndex::fns`]) of nested fn items.
    pub children: Vec<usize>,
    /// `true` when the item sits inside a `#[test]`/`#[cfg(test)]` span.
    pub is_test: bool,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Default)]
pub struct FileIndex {
    /// All fn items, outer items before their nested children.
    pub fns: Vec<FnItem>,
    /// Struct name → field name → normalized field type.
    pub structs: HashMap<String, HashMap<String, TypeShape>>,
    /// Every type name defined here (structs, enums, impl self types,
    /// traits).
    pub types: Vec<String>,
    /// Trait names declared here.
    pub traits: Vec<String>,
    /// `type Alias = Target;` items, normalized.
    pub aliases: HashMap<String, TypeShape>,
    /// Token-index ranges (inclusive) of `#[cfg(test)]` / `#[test]`
    /// items, as found by `find_test_spans`.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileIndex {
    /// `true` iff token `i` sits inside a test item.
    pub fn in_test_span(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| (s..=e).contains(&i))
    }
}

/// Identifiers that continue a pattern rather than bind a name.
const PATTERN_KEYWORDS: [&str; 8] = ["mut", "ref", "box", "Some", "Ok", "Err", "None", "_"];

/// Iterator adapters whose single-parameter closure receives one
/// element of the receiver chain.
const ADAPTERS: [&str; 14] = [
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "for_each",
    "inspect",
    "find",
    "find_map",
    "any",
    "all",
    "retain",
    "position",
    "map_while",
    "and_then",
];

/// Parses one lexed file.
pub fn parse(lexed: &Lexed) -> FileIndex {
    let mut p = Parser {
        t: &lexed.tokens,
        i: 0,
        idx: FileIndex {
            test_spans: find_test_spans(&lexed.tokens),
            ..FileIndex::default()
        },
        scopes: Vec::new(),
        pending: None,
    };
    p.run();
    p.idx
}

/// What the next `{` opens.
enum Pending {
    /// An `impl`/`trait` block for `ty`, with the impl header's
    /// type parameters.
    Impl {
        ty: String,
        trait_name: Option<String>,
        generics: Vec<String>,
    },
    /// The body of `fns[fn_id]`.
    Fn { fn_id: usize },
}

enum ScopeKind {
    Impl {
        ty: String,
        trait_name: Option<String>,
        generics: Vec<String>,
    },
    Fn {
        fn_id: usize,
    },
    Other,
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    idx: FileIndex,
    scopes: Vec<ScopeKind>,
    pending: Option<Pending>,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.t.get(i)
    }

    fn is_ident_at(&self, i: usize) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn is_path_sep(&self, i: usize) -> bool {
        i >= 1
            && self.tok(i).is_some_and(|t| t.is_punct(':'))
            && self.tok(i + 1).is_some_and(|t| t.is_punct(':'))
    }

    /// The innermost enclosing fn item, if any.
    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Fn { fn_id } => Some(*fn_id),
            _ => None,
        })
    }

    fn run(&mut self) {
        while self.i < self.t.len() {
            let tok = &self.t[self.i];
            if tok.is_punct('{') {
                let kind = match self.pending.take() {
                    Some(Pending::Impl {
                        ty,
                        trait_name,
                        generics,
                    }) => ScopeKind::Impl {
                        ty,
                        trait_name,
                        generics,
                    },
                    Some(Pending::Fn { fn_id }) => {
                        self.idx.fns[fn_id].body = Some((self.i, self.i));
                        ScopeKind::Fn { fn_id }
                    }
                    None => ScopeKind::Other,
                };
                self.scopes.push(kind);
                self.i += 1;
            } else if tok.is_punct('}') {
                if let Some(ScopeKind::Fn { fn_id }) = self.scopes.pop() {
                    if let Some((start, _)) = self.idx.fns[fn_id].body {
                        self.idx.fns[fn_id].body = Some((start, self.i));
                    }
                }
                self.i += 1;
            } else if tok.kind == TokenKind::Ident {
                match tok.text.as_str() {
                    "impl" => self.impl_header(),
                    "trait" => self.trait_header(),
                    "fn" => self.fn_header(),
                    "struct" => self.struct_item(),
                    "enum" | "union" => self.enum_item(),
                    "type" => self.type_alias(),
                    "let" => self.let_bind(),
                    "for" => self.for_bind(),
                    _ => self.maybe_call(),
                }
            } else {
                self.i += 1;
            }
        }
    }

    /// Skips a balanced `<…>` group starting at `j` (which holds `<`);
    /// returns the index just past the closing `>`. `->` arrows inside
    /// do not close the group.
    fn skip_angles(&self, mut j: usize) -> usize {
        let mut depth = 0i32;
        let limit = self.t.len().min(j + 512);
        while j < limit {
            let t = &self.t[j];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                if j > 0 && self.t[j - 1].is_punct('-') {
                    j += 1;
                    continue;
                }
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// The type-parameter names declared by the `<…>` group at `open`
    /// (`<'a, W: SearchWidth, const N: usize>` → `["W"]`): idents that
    /// open a parameter, skipping lifetimes, const parameters and
    /// anything nested in bounds.
    fn generic_params(&self, open: usize) -> Vec<String> {
        let mut names = Vec::new();
        let (mut angles, mut groups) = (0i32, 0i32);
        for j in open..self.skip_angles(open) {
            let t = &self.t[j];
            if t.is_punct('<') {
                angles += 1;
            } else if t.is_punct('>') && !self.t[j - 1].is_punct('-') {
                angles -= 1;
            } else if t.is_punct('(') || t.is_punct('[') {
                groups += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                groups -= 1;
            } else if angles == 1
                && groups == 0
                && t.kind == TokenKind::Ident
                && !t.is_ident("const")
                && (self.t[j - 1].is_punct('<') || self.t[j - 1].is_punct(','))
            {
                names.push(t.text.clone());
            }
        }
        names
    }

    /// Skips a balanced paren/bracket/brace group starting at `j`;
    /// returns the index just past the closer.
    fn skip_group(&self, mut j: usize, open: char, close: char) -> usize {
        let mut depth = 0i32;
        while j < self.t.len() {
            let t = &self.t[j];
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Parses a type path at `j` (`std::sync::RwLockReadGuard<'a, T>`),
    /// returning `(last_segment, index_past_path_and_generics)`.
    fn path_at(&self, mut j: usize) -> Option<(String, usize)> {
        if !self.is_ident_at(j) {
            return None;
        }
        let mut last = self.t[j].text.clone();
        j += 1;
        loop {
            if self.is_path_sep(j) {
                // `::<…>` turbofish between segments.
                if self.tok(j + 2).is_some_and(|t| t.is_punct('<')) {
                    j = self.skip_angles(j + 2);
                    if self.is_path_sep(j) && self.is_ident_at(j + 2) {
                        last = self.t[j + 2].text.clone();
                        j += 3;
                        continue;
                    }
                    break;
                }
                if self.is_ident_at(j + 2) {
                    last = self.t[j + 2].text.clone();
                    j += 3;
                    continue;
                }
                break;
            }
            if self.tok(j).is_some_and(|t| t.is_punct('<')) {
                j = self.skip_angles(j);
                // A path may continue after generics: `Foo<T>::bar`.
                if self.is_path_sep(j) && self.is_ident_at(j + 2) {
                    last = self.t[j + 2].text.clone();
                    j += 3;
                    continue;
                }
            }
            break;
        }
        Some((last, j))
    }

    /// `impl<…> Type {` / `impl<…> Trait for Type {`.
    fn impl_header(&mut self) {
        let mut j = self.i + 1;
        let mut generics = Vec::new();
        if self.tok(j).is_some_and(|t| t.is_punct('<')) {
            generics = self.generic_params(j);
            j = self.skip_angles(j);
        }
        // Skip leading `&`/`mut`/`dyn` on the (trait or self) type.
        while self
            .tok(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_ident("dyn"))
        {
            j += 1;
        }
        let Some((first, after)) = self.path_at(j) else {
            self.i += 1;
            return;
        };
        j = after;
        let (ty, trait_name) = if self.tok(j).is_some_and(|t| t.is_ident("for")) {
            j += 1;
            while self
                .tok(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_ident("dyn"))
            {
                j += 1;
            }
            match self.path_at(j) {
                Some((ty, after)) => {
                    j = after;
                    (ty, Some(first))
                }
                None => {
                    self.i += 1;
                    return;
                }
            }
        } else {
            (first, None)
        };
        // Skip a `where` clause (no braces inside).
        while j < self.t.len() && !self.t[j].is_punct('{') && !self.t[j].is_punct(';') {
            j += 1;
        }
        if self.tok(j).is_some_and(|t| t.is_punct('{')) {
            if !self.idx.types.contains(&ty) {
                self.idx.types.push(ty.clone());
            }
            self.pending = Some(Pending::Impl {
                ty,
                trait_name,
                generics,
            });
            self.i = j;
        } else {
            self.i = j;
        }
    }

    /// `trait Name … {` — treated as an impl of the trait for itself,
    /// so default method bodies resolve as `(TraitName, method)`.
    fn trait_header(&mut self) {
        let Some((name, mut j)) = self.path_at(self.i + 1) else {
            self.i += 1;
            return;
        };
        while j < self.t.len() && !self.t[j].is_punct('{') && !self.t[j].is_punct(';') {
            j += 1;
        }
        if self.tok(j).is_some_and(|t| t.is_punct('{')) {
            if !self.idx.types.contains(&name) {
                self.idx.types.push(name.clone());
            }
            if !self.idx.traits.contains(&name) {
                self.idx.traits.push(name.clone());
            }
            self.pending = Some(Pending::Impl {
                ty: name.clone(),
                trait_name: Some(name),
                generics: Vec::new(),
            });
            self.i = j;
        } else {
            self.i = j;
        }
    }

    /// `fn name<…>(params) -> Ret where … { body }`.
    fn fn_header(&mut self) {
        let name_tok = self.i + 1;
        if !self.is_ident_at(name_tok) {
            // `fn(…)` pointer type or `impl Fn…` bound.
            self.i += 1;
            return;
        }
        let name = self.t[name_tok].text.clone();
        let line = self.t[name_tok].line;
        let mut j = name_tok + 1;
        let mut generics = Vec::new();
        if self.tok(j).is_some_and(|t| t.is_punct('<')) {
            generics = self.generic_params(j);
            j = self.skip_angles(j);
        }
        if !self.tok(j).is_some_and(|t| t.is_punct('(')) {
            self.i = name_tok;
            return;
        }
        let params_start = j + 1;
        let params_end = self.skip_group(j, '(', ')') - 1; // index of `)`
        let binds = self.params(params_start, params_end);
        j = params_end + 1;
        // Return type: `-> Tokens` until `{`, `;`, or `where`.
        let mut ret_shape = None;
        let mut ret_mentions_guard = false;
        if self.tok(j).is_some_and(|t| t.is_punct('-'))
            && self.tok(j + 1).is_some_and(|t| t.is_punct('>'))
        {
            let ret_start = j + 2;
            let mut k = ret_start;
            while k < self.t.len() {
                let t = &self.t[k];
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                if t.kind == TokenKind::Ident && t.text.contains("Guard") {
                    ret_mentions_guard = true;
                }
                k += 1;
            }
            ret_shape = normalize_type(&self.t[ret_start..k]);
            j = k;
        }
        while j < self.t.len() && !self.t[j].is_punct('{') && !self.t[j].is_punct(';') {
            j += 1;
        }
        // Attribution: a method iff the *innermost* non-Other scope is
        // an impl/trait block (nested fns inside methods are free).
        let (self_type, trait_name) = match self
            .scopes
            .iter()
            .rev()
            .find(|s| !matches!(s, ScopeKind::Other))
        {
            Some(ScopeKind::Impl {
                ty,
                trait_name,
                generics: outer,
            }) => {
                generics.extend(outer.iter().cloned());
                (Some(ty.clone()), trait_name.clone())
            }
            _ => (None, None),
        };
        let fn_id = self.idx.fns.len();
        if let Some(parent) = self.current_fn() {
            self.idx.fns[parent].children.push(fn_id);
        }
        let is_test = self.idx.in_test_span(name_tok);
        self.idx.fns.push(FnItem {
            name,
            self_type,
            trait_name,
            generics,
            line,
            name_tok,
            body: None,
            binds,
            ret_shape,
            ret_mentions_guard,
            calls: Vec::new(),
            children: Vec::new(),
            is_test,
        });
        if self.tok(j).is_some_and(|t| t.is_punct('{')) {
            self.pending = Some(Pending::Fn { fn_id });
            self.i = j;
        } else {
            self.i = j.min(self.t.len());
            if self.tok(self.i).is_some_and(|t| t.is_punct(';')) {
                self.i += 1;
            }
        }
    }

    /// Parses the parameter list tokens in `[start, end)` into typed
    /// binds. Only simple `name: Type` params are typed.
    fn params(&self, start: usize, end: usize) -> Vec<LocalBind> {
        let mut out = Vec::new();
        let mut j = start;
        while j < end {
            // One parameter: up to the next top-level `,`.
            let mut k = j;
            let mut depth = 0i32;
            while k < end {
                let t = &self.t[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('>') {
                    if !(k > 0 && self.t[k - 1].is_punct('-')) {
                        depth -= 1;
                    }
                } else if t.is_punct(',') && depth == 0 {
                    break;
                }
                k += 1;
            }
            // `name : Type` (skip `mut`; `self` params carry no bind).
            let mut p = j;
            if self.tok(p).is_some_and(|t| t.is_ident("mut")) {
                p += 1;
            }
            if self.is_ident_at(p)
                && !self.t[p].is_ident("self")
                && self.tok(p + 1).is_some_and(|t| t.is_punct(':'))
                && !self.is_path_sep(p + 1)
            {
                if let Some(shape) = normalize_type(&self.t[p + 2..k]) {
                    out.push(LocalBind {
                        name: self.t[p].text.clone(),
                        hint: LocalHint::Direct(shape),
                    });
                }
            }
            j = k + 1;
        }
        out
    }

    /// `struct Name<…> { fields }` / tuple / unit struct.
    fn struct_item(&mut self) {
        let name_tok = self.i + 1;
        if !self.is_ident_at(name_tok) {
            self.i += 1;
            return;
        }
        let name = self.t[name_tok].text.clone();
        if !self.idx.types.contains(&name) {
            self.idx.types.push(name.clone());
        }
        let mut j = name_tok + 1;
        if self.tok(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j);
        }
        while j < self.t.len()
            && !self.t[j].is_punct('{')
            && !self.t[j].is_punct('(')
            && !self.t[j].is_punct(';')
        {
            j += 1;
        }
        let mut fields = HashMap::new();
        match self.tok(j) {
            Some(t) if t.is_punct('{') => {
                let end = self.skip_group(j, '{', '}') - 1; // the `}`
                let mut k = j + 1;
                while k < end {
                    k = self.skip_visibility(k);
                    if self.is_ident_at(k)
                        && self.tok(k + 1).is_some_and(|t| t.is_punct(':'))
                        && !self.is_path_sep(k + 1)
                    {
                        let fname = self.t[k].text.clone();
                        let ty_start = k + 2;
                        let ty_end = self.field_end(ty_start, end);
                        if let Some(shape) = normalize_type(&self.t[ty_start..ty_end]) {
                            fields.insert(fname, shape);
                        }
                        k = ty_end + 1;
                    } else {
                        k += 1;
                    }
                }
                self.i = end + 1;
            }
            Some(t) if t.is_punct('(') => {
                let end = self.skip_group(j, '(', ')') - 1;
                let mut k = j + 1;
                let mut index = 0usize;
                while k < end {
                    k = self.skip_visibility(k);
                    let ty_end = self.field_end(k, end);
                    if let Some(shape) = normalize_type(&self.t[k..ty_end]) {
                        fields.insert(index.to_string(), shape);
                    }
                    index += 1;
                    k = ty_end + 1;
                }
                self.i = end + 1;
            }
            _ => {
                self.i = j + 1;
            }
        }
        self.idx.structs.insert(name, fields);
    }

    /// Skips `pub` / `pub(crate)` / attributes before a field.
    fn skip_visibility(&self, mut k: usize) -> usize {
        loop {
            if self.tok(k).is_some_and(|t| t.is_punct('#'))
                && self.tok(k + 1).is_some_and(|t| t.is_punct('['))
            {
                k = self.skip_group(k + 1, '[', ']');
            } else if self.tok(k).is_some_and(|t| t.is_ident("pub")) {
                k += 1;
                if self.tok(k).is_some_and(|t| t.is_punct('(')) {
                    k = self.skip_group(k, '(', ')');
                }
            } else {
                return k;
            }
        }
    }

    /// End of a field's type: the next `,` at depth 0, or `limit`.
    fn field_end(&self, start: usize, limit: usize) -> usize {
        let mut depth = 0i32;
        let mut k = start;
        while k < limit {
            let t = &self.t[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('>') {
                if !(k > 0 && self.t[k - 1].is_punct('-')) {
                    depth -= 1;
                }
            } else if t.is_punct(',') && depth == 0 {
                return k;
            }
            k += 1;
        }
        limit
    }

    /// `enum`/`union` — register the name, skip the body.
    fn enum_item(&mut self) {
        let name_tok = self.i + 1;
        if !self.is_ident_at(name_tok) {
            self.i += 1;
            return;
        }
        let name = self.t[name_tok].text.clone();
        if !self.idx.types.contains(&name) {
            self.idx.types.push(name);
        }
        let mut j = name_tok + 1;
        while j < self.t.len() && !self.t[j].is_punct('{') && !self.t[j].is_punct(';') {
            j += 1;
        }
        if self.tok(j).is_some_and(|t| t.is_punct('{')) {
            self.i = self.skip_group(j, '{', '}');
        } else {
            self.i = j + 1;
        }
    }

    /// `type Alias<…> = Target;` (also catches associated types, which
    /// is harmless and occasionally useful).
    fn type_alias(&mut self) {
        let name_tok = self.i + 1;
        if !self.is_ident_at(name_tok) {
            self.i += 1;
            return;
        }
        let name = self.t[name_tok].text.clone();
        let mut j = name_tok + 1;
        if self.tok(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j);
        }
        if !self.tok(j).is_some_and(|t| t.is_punct('=')) {
            self.i = name_tok;
            return;
        }
        let ty_start = j + 1;
        let mut k = ty_start;
        while k < self.t.len() && !self.t[k].is_punct(';') {
            k += 1;
        }
        if let Some(shape) = normalize_type(&self.t[ty_start..k]) {
            self.idx.aliases.insert(name, shape);
        }
        self.i = k + 1;
    }

    /// Records a typed `let` binding for the innermost fn, then lets the
    /// main loop re-walk the RHS tokens (so calls inside it are seen).
    fn let_bind(&mut self) {
        let let_tok = self.i;
        self.i += 1;
        let Some(fn_id) = self.current_fn() else {
            return;
        };
        // Pattern: tokens up to `=` at depth 0 (bail on `;`/`{`).
        let mut k = let_tok + 1;
        let limit = self.t.len().min(k + 32);
        let mut depth = 0i32;
        let mut pat_end = None;
        while k < limit {
            let t = &self.t[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth -= 1;
            } else if t.is_punct('=') && depth == 0 {
                // `==` and `=>` never appear between a pattern and its
                // initializer.
                pat_end = Some(k);
                break;
            } else if t.is_punct(';') || t.is_punct('{') {
                break;
            }
            k += 1;
        }
        let Some(eq) = pat_end else {
            return;
        };
        // Supported shapes: `[mut] name [: Type]` and `Ok(name)` /
        // `Some(name)` (the let-else guard patterns).
        let mut p = let_tok + 1;
        if self.tok(p).is_some_and(|t| t.is_ident("mut")) {
            p += 1;
        }
        let (name, ann_start) = if self.is_ident_at(p)
            && (self.t[p].is_ident("Ok") || self.t[p].is_ident("Some"))
            && self.tok(p + 1).is_some_and(|t| t.is_punct('('))
        {
            let mut q = p + 2;
            if self.tok(q).is_some_and(|t| t.is_ident("mut")) {
                q += 1;
            }
            if self.is_ident_at(q) && self.tok(q + 1).is_some_and(|t| t.is_punct(')')) {
                (Some(self.t[q].text.clone()), q + 2)
            } else {
                (None, eq)
            }
        } else if self.is_ident_at(p) && !PATTERN_KEYWORDS.contains(&self.t[p].text.as_str()) {
            (Some(self.t[p].text.clone()), p + 1)
        } else {
            (None, eq)
        };
        let Some(name) = name else { return };
        // Explicit annotation wins.
        if self.tok(ann_start).is_some_and(|t| t.is_punct(':')) && ann_start + 1 < eq {
            if let Some(shape) = normalize_type(&self.t[ann_start + 1..eq]) {
                self.idx.fns[fn_id].binds.push(LocalBind {
                    name,
                    hint: LocalHint::Direct(shape),
                });
            }
            return;
        }
        if ann_start != eq {
            return; // unsupported pattern tail
        }
        // `let x = match … { Pat => expr, … }`: every arm yields the
        // same type, so the first arm's expression types the binding
        // (arms that diverge — `return`/`panic!` — make forward_chain
        // bail, which only costs precision, never soundness).
        let rhs = if self.tok(eq + 1).is_some_and(|t| t.is_ident("match")) {
            let Some(arm) = self.first_match_arm(eq + 1) else {
                return;
            };
            arm
        } else {
            self.pointer_inner(eq + 1)
        };
        if let Some(chain) = self.forward_chain(rhs) {
            self.idx.fns[fn_id].binds.push(LocalBind {
                name,
                hint: LocalHint::Chain(chain),
            });
        }
    }

    /// `Arc::new(expr);` / `Box::new(expr);` / `Rc::new(expr);` at `j`:
    /// the pointer derefs to `expr`, so the binding is typed by the
    /// chain inside (its start is returned); any other value starts at
    /// `j` itself.
    fn pointer_inner(&self, j: usize) -> usize {
        let wraps = self
            .tok(j)
            .is_some_and(|t| t.is_ident("Arc") || t.is_ident("Box") || t.is_ident("Rc"))
            && self.is_path_sep(j + 1)
            && self.tok(j + 3).is_some_and(|t| t.is_ident("new"))
            && self.tok(j + 4).is_some_and(|t| t.is_punct('('));
        let whole = wraps
            && self
                .tok(self.skip_group(j + 4, '(', ')'))
                .is_some_and(|t| t.is_punct(';'));
        if whole {
            j + 5
        } else {
            j
        }
    }

    /// From the `match` keyword at `m`, the token index just after the
    /// first arm's `=>` (bounded scan; `None` if no arm is found).
    fn first_match_arm(&self, m: usize) -> Option<usize> {
        // Skip the scrutinee: everything up to the body `{` at depth 0.
        let mut k = m + 1;
        let mut depth = 0i32;
        let limit = self.t.len().min(m + 64);
        while k < limit {
            let t = &self.t[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                break;
            } else if t.is_punct(';') {
                return None;
            }
            k += 1;
        }
        // Inside the body: the first `=>` at body depth.
        let limit = self.t.len().min(k + 64);
        let mut j = k + 1;
        depth = 0;
        while j + 1 < limit {
            let t = &self.t[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if t.is_punct('}') && depth == 0 {
                    return None;
                }
                depth -= 1;
            } else if t.is_punct('=') && depth == 0 && self.t[j + 1].is_punct('>') {
                return Some(j + 2);
            }
            j += 1;
        }
        None
    }

    /// `for name in chain { … }` element bindings.
    fn for_bind(&mut self) {
        let for_tok = self.i;
        self.i += 1;
        // `for<'a>` higher-ranked bound / `impl Trait for Type` never
        // reach here (impl headers consume their own `for`).
        if self.tok(for_tok + 1).is_some_and(|t| t.is_punct('<')) {
            return;
        }
        let Some(fn_id) = self.current_fn() else {
            return;
        };
        let mut p = for_tok + 1;
        if self.tok(p).is_some_and(|t| t.is_ident("mut")) {
            p += 1;
        }
        if !self.is_ident_at(p) || !self.tok(p + 1).is_some_and(|t| t.is_ident("in")) {
            return;
        }
        let name = self.t[p].text.clone();
        if let Some(chain) = self.forward_chain(p + 2) {
            self.idx.fns[fn_id].binds.push(LocalBind {
                name,
                hint: LocalHint::IterChain(chain),
            });
        }
    }

    /// Reads an expression chain starting at `j` without consuming:
    /// `[&]* (self | ident) (.ident | .method(…) | ::ident)*`. Returns
    /// `None` when `j` does not start a chain (literals, `match`, …).
    fn forward_chain(&self, mut j: usize) -> Option<Vec<ChainSeg>> {
        while self
            .tok(j)
            .is_some_and(|t| t.is_punct('&') || t.is_punct('*') || t.is_ident("mut"))
        {
            j += 1;
        }
        if !self.is_ident_at(j) {
            return None;
        }
        let head = &self.t[j];
        if matches!(
            head.text.as_str(),
            "match" | "if" | "loop" | "while" | "unsafe" | "move" | "return" | "break"
        ) {
            return None;
        }
        let mut segs = vec![if head.is_ident("self") {
            ChainSeg::SelfTok
        } else {
            ChainSeg::Ident(head.text.clone())
        }];
        j += 1;
        loop {
            if self.is_path_sep(j) && self.is_ident_at(j + 2) {
                // Path segment: keep as Ident (type/module qualifier).
                segs.push(ChainSeg::Ident(self.t[j + 2].text.clone()));
                j += 3;
                continue;
            }
            if self.is_path_sep(j) && self.tok(j + 2).is_some_and(|t| t.is_punct('<')) {
                // Turbofish: the type arguments don't change the chain.
                j = self.skip_angles(j + 2);
                continue;
            }
            if self.tok(j).is_some_and(|t| t.is_punct('(')) {
                // Call on the last segment.
                let name = match segs.pop()? {
                    ChainSeg::Ident(n) => n,
                    other => {
                        segs.push(other);
                        return Some(segs);
                    }
                };
                segs.push(ChainSeg::Call(name));
                j = self.skip_group(j, '(', ')');
                continue;
            }
            if self.tok(j).is_some_and(|t| t.is_punct('?')) {
                j += 1;
                continue;
            }
            if self.tok(j).is_some_and(|t| t.is_punct('.'))
                && self
                    .tok(j + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident || t.kind == TokenKind::Number)
            {
                segs.push(ChainSeg::Ident(self.t[j + 1].text.clone()));
                j += 2;
                continue;
            }
            break;
        }
        Some(segs)
    }

    /// Call-expression detection at the current ident token.
    fn maybe_call(&mut self) {
        let i = self.i;
        self.i += 1;
        if !self.tok(i + 1).is_some_and(|t| t.is_punct('(')) {
            return;
        }
        let Some(fn_id) = self.current_fn() else {
            return;
        };
        let name = self.t[i].text.clone();
        let empty_args = self.tok(i + 2).is_some_and(|t| t.is_punct(')'));
        let line = self.t[i].line;
        let callee = if i >= 1 && self.t[i - 1].is_punct('.') {
            let recv = self.recv_chain(i);
            // `recv.map(|x| …)`: the closure parameter binds one
            // element of the receiver chain.
            if is_adapter(&name)
                && self.tok(i + 2).is_some_and(|t| t.is_punct('|'))
                && self.is_ident_at(i + 3)
                && self
                    .tok(i + 4)
                    .is_some_and(|t| t.is_punct('|') || t.is_punct(':'))
            {
                let param = self.t[i + 3].text.clone();
                if param != "_" {
                    self.idx.fns[fn_id].binds.push(LocalBind {
                        name: param,
                        hint: LocalHint::IterChain(recv.clone()),
                    });
                }
            }
            Callee::Method { name, recv }
        } else if i >= 2 && self.is_path_sep(i - 2) {
            let qualifier = self.path_qualifier(i);
            Callee::Path { qualifier, name }
        } else {
            Callee::Free { name }
        };
        self.idx.fns[fn_id].calls.push(CallSite {
            callee,
            line,
            tok: i,
            empty_args,
        });
    }

    /// The path segment qualifying `t[i]` (`Type::name` → `Type`),
    /// skipping a turbofish between them.
    fn path_qualifier(&self, i: usize) -> Option<String> {
        // i-2, i-1 are `::`. Before that: ident, or `>` closing a
        // turbofish/generic whose opener is preceded by the ident.
        if i < 3 {
            return None;
        }
        let j = i - 3;
        let t = &self.t[j];
        if t.kind == TokenKind::Ident {
            return Some(t.text.clone());
        }
        if t.is_punct('>') {
            // Walk back over the balanced `<…>`.
            let mut depth = 0i32;
            let mut k = j;
            loop {
                let tk = &self.t[k];
                if tk.is_punct('>') {
                    depth += 1;
                } else if tk.is_punct('<') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            // `Type::<…>` or `Type<…>`.
            if k >= 1 && self.t[k - 1].kind == TokenKind::Ident {
                return Some(self.t[k - 1].text.clone());
            }
            if k >= 3 && self.is_path_sep(k - 2) && self.t[k - 3].kind == TokenKind::Ident {
                return Some(self.t[k - 3].text.clone());
            }
        }
        None
    }

    /// Builds the receiver chain of the method call whose name sits at
    /// `i` (`t[i-1]` is `.`), walking backwards. Innermost receiver
    /// first in the returned vec.
    fn recv_chain(&self, i: usize) -> Vec<ChainSeg> {
        let mut segs: Vec<ChainSeg> = Vec::new();
        let mut j = i as isize - 2;
        loop {
            if j < 0 {
                break;
            }
            let t = &self.t[j as usize];
            if t.is_punct(')') {
                // Match backwards to the opening paren.
                let mut depth = 0i32;
                let mut k = j;
                loop {
                    let tk = &self.t[k as usize];
                    if tk.is_punct(')') {
                        depth += 1;
                    } else if tk.is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k -= 1;
                    if k < 0 {
                        segs.push(ChainSeg::Unknown);
                        segs.reverse();
                        return segs;
                    }
                }
                let open = k;
                if open >= 1 && self.t[(open - 1) as usize].kind == TokenKind::Ident {
                    segs.push(ChainSeg::Call(self.t[(open - 1) as usize].text.clone()));
                    j = open - 2;
                } else {
                    segs.push(ChainSeg::Unknown);
                    break;
                }
            } else if t.kind == TokenKind::Ident || t.kind == TokenKind::Number {
                if t.is_ident("self") {
                    segs.push(ChainSeg::SelfTok);
                } else {
                    segs.push(ChainSeg::Ident(t.text.clone()));
                }
                j -= 1;
            } else if t.is_punct('?') {
                j -= 1;
                continue;
            } else {
                segs.push(ChainSeg::Unknown);
                break;
            }
            if j >= 0 && self.t[j as usize].is_punct('.') {
                j -= 1;
                continue;
            }
            if j >= 1 && self.t[j as usize].is_punct(':') && self.t[(j - 1) as usize].is_punct(':')
            {
                j -= 2;
                continue;
            }
            break;
        }
        segs.reverse();
        segs
    }
}

/// The wrapper types normalization strips down to their (first
/// non-lifetime) type argument.
const WRAPPERS: [&str; 16] = [
    "Arc",
    "Rc",
    "Box",
    "Option",
    "Result",
    "Cell",
    "RefCell",
    "OnceLock",
    "Mutex",
    "RwLock",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "LockResult",
    "PoisonError",
    "ManuallyDrop",
];

/// Containers whose element shape is their first type argument.
const SEQ_CONTAINERS: [&str; 5] = ["Vec", "VecDeque", "BinaryHeap", "HashSet", "BTreeSet"];

/// Map containers whose element shape is their *second* type argument.
const MAP_CONTAINERS: [&str; 2] = ["HashMap", "BTreeMap"];

/// Normalizes a type's token slice into a [`TypeShape`]. `None` when
/// the tokens do not name a followable type (tuples, fn pointers,
/// bare generics the parser cannot see through).
pub fn normalize_type(tokens: &[Token]) -> Option<TypeShape> {
    let mut j = 0usize;
    // Strip references, raw pointers, lifetimes, `mut`/`dyn`/`impl`.
    loop {
        match tokens.get(j) {
            Some(t) if t.is_punct('&') || t.is_punct('*') => j += 1,
            Some(t) if t.is_punct('\'') => j += 2, // lifetime tick + name
            Some(t) if t.is_ident("mut") || t.is_ident("dyn") || t.is_ident("const") => j += 1,
            Some(t) if t.is_ident("impl") => j += 1,
            _ => break,
        }
    }
    let first = tokens.get(j)?;
    if first.is_punct('[') {
        // Slice/array: element type up to `;` or `]`.
        let inner_start = j + 1;
        let mut k = inner_start;
        let mut depth = 0i32;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('[') {
                depth += 1;
            } else if (t.is_punct(';') || t.is_punct(']')) && depth == 0 {
                break;
            } else if t.is_punct(']') {
                depth -= 1;
            }
            k += 1;
        }
        let elem = normalize_type(&tokens[inner_start..k])?;
        return Some(TypeShape {
            head: "slice".to_string(),
            elem: Some(Box::new(elem)),
        });
    }
    if first.kind != TokenKind::Ident {
        return None; // tuple, macro type, …
    }
    // Path: collect segments, remember the last.
    let mut head = first.text.clone();
    let mut k = j + 1;
    while k + 1 < tokens.len()
        && tokens[k].is_punct(':')
        && tokens[k + 1].is_punct(':')
        && tokens
            .get(k + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    {
        head = tokens[k + 2].text.clone();
        k += 3;
    }
    // Generic arguments, split at top level.
    let mut args: Vec<&[Token]> = Vec::new();
    if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
        let open = k;
        let mut depth = 0i32;
        let mut arg_start = open + 1;
        let mut m = open;
        while m < tokens.len() {
            let t = &tokens[m];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                if m > 0 && tokens[m - 1].is_punct('-') {
                    m += 1;
                    continue;
                }
                depth -= 1;
                if depth == 0 {
                    if arg_start < m {
                        args.push(&tokens[arg_start..m]);
                    }
                    break;
                }
            } else if t.is_punct(',') && depth == 1 {
                args.push(&tokens[arg_start..m]);
                arg_start = m + 1;
            }
            m += 1;
        }
    }
    fn non_lifetime(slice: &[Token]) -> bool {
        slice
            .iter()
            .any(|t| (t.kind == TokenKind::Ident && !t.is_ident("static")) || t.is_punct('['))
            && !matches!(slice.first(), Some(t) if t.is_punct('\'') && slice.len() <= 2)
    }
    if WRAPPERS.contains(&head.as_str()) {
        let inner = args.iter().find(|a| non_lifetime(a))?;
        return normalize_type(inner);
    }
    if SEQ_CONTAINERS.contains(&head.as_str()) {
        let elem = args
            .iter()
            .find(|a| non_lifetime(a))
            .and_then(|a| normalize_type(a));
        return Some(TypeShape {
            head,
            elem: elem.map(Box::new),
        });
    }
    if MAP_CONTAINERS.contains(&head.as_str()) {
        let typed: Vec<&&[Token]> = args.iter().filter(|a| non_lifetime(a)).collect();
        let elem = typed.get(1).and_then(|a| normalize_type(a));
        return Some(TypeShape {
            head,
            elem: elem.map(Box::new),
        });
    }
    Some(TypeShape { head, elem: None })
}

/// Whether `name` is an iterator adapter whose closure parameter binds
/// one element of the receiver.
pub fn is_adapter(name: &str) -> bool {
    ADAPTERS.contains(&name)
}

/// Finds token-index ranges belonging to `#[cfg(test)]` / `#[test]` /
/// `#[cfg(all(test, …))]` items: the attribute, then (skipping any
/// further attributes) the next item through its closing brace or
/// semicolon. A test-only field, variant, struct-literal entry or
/// match arm ends at its top-level comma (or, if it is the last one,
/// before the brace that closes its enclosing item), so later siblings
/// stay outside the span.
pub(crate) fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') || !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let (attr_end, mentions_test) = scan_attribute(tokens, i + 1);
        if !mentions_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = attr_end + 1;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = scan_attribute(tokens, j + 1).0 + 1;
        }
        // The item body: through the matching `}` of its first brace, a
        // top-level `;` (e.g. `#[cfg(test)] use …;`), a top-level `,`
        // of the enclosing item (e.g. `#[cfg(test)] generated: u64,`),
        // or up to the `}` of the enclosing item. `<…>`, `(…)` and
        // `[…]` nest, so `HashMap<u8, u8>`, `(u8, u8)` and `[u8; 4]`
        // stay inside; a `where` clause's commas do not end its item.
        let mut depth = 0i32;
        let mut nest = 0i32;
        let mut in_where = false;
        let mut end = j;
        while end < tokens.len() {
            let t = &tokens[end];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    end -= 1;
                    break;
                }
                if depth == 0 {
                    break;
                }
            } else if depth > 0 {
                // Inside a body only its closing brace matters.
            } else if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                nest += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                if nest == 0 {
                    // The enclosing argument list or array closes.
                    end -= 1;
                    break;
                }
                nest -= 1;
            } else if t.is_punct('>') {
                // The `>` of `->` and `=>` closes nothing.
                let arrow = tokens[end - 1].is_punct('-') || tokens[end - 1].is_punct('=');
                if !arrow && nest > 0 {
                    nest -= 1;
                }
            } else if t.is_ident("where") && nest == 0 {
                in_where = true;
            } else if nest == 0 && (t.is_punct(';') || t.is_punct(',') && !in_where) {
                break;
            }
            end += 1;
        }
        spans.push((i, end));
        i = end + 1;
    }
    spans
}

/// Scans a `[…]` attribute starting at `open` (the `[`); returns the
/// index of the closing `]` and whether the ident `test` appears inside.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut mentions_test = false;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (j, mentions_test);
            }
        } else if t.is_ident("test") {
            mentions_test = true;
        }
    }
    (tokens.len().saturating_sub(1), mentions_test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> FileIndex {
        parse(&lex(src))
    }

    fn shape(ty: &str) -> Option<TypeShape> {
        normalize_type(&lex(ty).tokens)
    }

    #[test]
    fn normalize_strips_wrappers_and_lifetimes() {
        assert_eq!(
            shape("Arc<RwLock<SearchEngine<W>>>").unwrap().head,
            "SearchEngine"
        );
        assert_eq!(
            shape("Result<RwLockWriteGuard<'_, SearchEngine<W>>, HostError>")
                .unwrap()
                .head,
            "SearchEngine"
        );
        assert_eq!(
            shape("Option<&'a mut HostTables>").unwrap().head,
            "HostTables"
        );
    }

    #[test]
    fn normalize_containers_carry_elements() {
        let s = shape("Vec<Arc<EngineHost>>").unwrap();
        assert_eq!(s.head, "Vec");
        assert_eq!(s.elem.unwrap().head, "EngineHost");
        let m = shape("HashMap<CostModel, Arc<EngineHost<Wide>>>").unwrap();
        assert_eq!(m.head, "HashMap");
        assert_eq!(m.elem.unwrap().head, "EngineHost");
    }

    #[test]
    fn fns_register_under_impl_type_with_generics() {
        let idx =
            index("impl<W: SearchWidth> EngineHost<W> {\n    fn probe(&self) -> u32 { 0 }\n}\n");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "probe");
        assert_eq!(idx.fns[0].self_type.as_deref(), Some("EngineHost"));
    }

    #[test]
    fn fns_record_their_own_and_impl_generic_params() {
        let idx = index(
            "impl<'a, W: SearchWidth> Host<'a, W> {\n fn f<T: Fn(A, B) -> C, const N: usize>(&self) {}\n fn g(&self) { fn nested<U>() {} }\n}\nfn free<X>() {}\n",
        );
        let generics = |name: &str| &idx.fns.iter().find(|f| f.name == name).unwrap().generics;
        assert_eq!(generics("f"), &["T", "W"]);
        assert_eq!(generics("g"), &["W"]);
        assert_eq!(generics("nested"), &["U"]);
        assert_eq!(generics("free"), &["X"]);
    }

    #[test]
    fn pointer_wrapped_lets_are_typed_by_the_inner_chain() {
        let idx = index(
            "fn f() {\n let h = Arc::new(Host::with_limits(a, b));\n let j = Box::new(x).y();\n}\n",
        );
        let binds = &idx.fns[0].binds;
        let h = binds.iter().find(|b| b.name == "h").unwrap();
        assert!(
            matches!(&h.hint, LocalHint::Chain(c) if c[..] == [ChainSeg::Ident("Host".to_string()), ChainSeg::Call("with_limits".to_string())]),
            "{h:?}"
        );
        let j = binds.iter().find(|b| b.name == "j").unwrap();
        assert!(
            matches!(&j.hint, LocalHint::Chain(c) if c[0] == ChainSeg::Ident("Box".to_string())),
            "{j:?}"
        );
    }

    #[test]
    fn trait_default_methods_register_under_trait_name() {
        let idx = index("trait Probe {\n    fn on(&self) { self.fire(); }\n}\n");
        assert_eq!(idx.fns[0].self_type.as_deref(), Some("Probe"));
        assert_eq!(idx.fns[0].trait_name.as_deref(), Some("Probe"));
    }

    #[test]
    fn let_bindings_capture_chains_and_match_arms() {
        let idx = index(
            "impl Host {\n fn f(&self) {\n  let g = self.engine.read();\n  let e = match x {\n   Some(v) => Engine::<W>::load(v).map_err(E::from)?,\n   None => return,\n  };\n  e.go();\n }\n}\n",
        );
        let binds = &idx.fns[0].binds;
        let g = binds.iter().find(|b| b.name == "g").unwrap();
        assert!(matches!(&g.hint, LocalHint::Chain(c) if c.len() == 3));
        let e = binds.iter().find(|b| b.name == "e").unwrap();
        match &e.hint {
            LocalHint::Chain(c) => {
                assert_eq!(c[0], ChainSeg::Ident("Engine".to_string()));
                assert_eq!(c[1], ChainSeg::Call("load".to_string()));
                assert_eq!(c[2], ChainSeg::Call("map_err".to_string()));
            }
            other => panic!("wanted chain, got {other:?}"),
        }
    }

    #[test]
    fn adapter_closures_bind_the_element() {
        let idx = index(
            "impl R {\n fn f(&self) {\n  let Ok(hosts) = self.hosts.lock() else { return; };\n  for h in hosts.narrow.values() { h.go(); }\n  hosts.wide.values().map(|w| w.go());\n }\n}\n",
        );
        let binds = &idx.fns[0].binds;
        assert!(binds.iter().any(|b| b.name == "hosts"));
        let h = binds.iter().find(|b| b.name == "h").unwrap();
        assert!(matches!(&h.hint, LocalHint::IterChain(_)));
        let w = binds.iter().find(|b| b.name == "w").unwrap();
        assert!(matches!(&w.hint, LocalHint::IterChain(_)));
    }

    #[test]
    fn guard_returning_fns_are_flagged() {
        let idx = index(
            "impl H {\n fn flight_lock(&self) -> Result<MutexGuard<'_, Flight>, E> {\n  self.flight.lock().map_err(E::from)\n }\n fn plain(&self) -> u32 { 0 }\n}\n",
        );
        assert!(idx.fns[0].ret_mentions_guard);
        assert!(!idx.fns[1].ret_mentions_guard);
    }

    #[test]
    fn nested_fns_are_children_not_own_tokens() {
        let idx = index("fn outer() {\n fn inner() { helper(); }\n inner();\n}\n");
        let outer = idx.fns.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(outer.children.len(), 1);
        assert!(outer
            .calls
            .iter()
            .all(|c| !matches!(&c.callee, Callee::Free { name } if name == "helper")));
    }

    #[test]
    fn test_span_fns_are_marked() {
        let idx = index(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { real(); }\n}\n",
        );
        assert!(!idx.fns.iter().find(|f| f.name == "real").unwrap().is_test);
        assert!(idx.fns.iter().find(|f| f.name == "t").unwrap().is_test);
    }

    #[test]
    fn test_only_fields_do_not_swallow_the_next_item() {
        let idx = index(
            "struct F {\n    k: usize,\n    #[cfg(test)]\n    generated: u64,\n}\n\
             impl F {\n    fn new() -> Self {\n        Self {\n            k: 0,\n            \
             #[cfg(test)]\n            generated: 0,\n        }\n    }\n    \
             fn next(&self) {}\n}\n",
        );
        assert!(!idx.fns.iter().find(|f| f.name == "new").unwrap().is_test);
        assert!(!idx.fns.iter().find(|f| f.name == "next").unwrap().is_test);
    }

    #[test]
    fn test_only_field_ends_at_its_comma() {
        let src = "struct F {\n    #[cfg(test)]\n    audit: BTreeMap<u8, (u8, [u8; 4])>,\n    \
                   later: HashMap<u64, u32>,\n    #[cfg(test)]\n    last: fn(u8) -> Vec<u8>,\n}\n";
        let lexed = lex(src);
        let spans = find_test_spans(&lexed.tokens);
        let text = |(s, e): (usize, usize)| -> Vec<&str> {
            lexed.tokens[s..=e]
                .iter()
                .map(|t| t.text.as_str())
                .collect()
        };
        assert_eq!(spans.len(), 2, "{spans:?}");
        // The first span holds the whole nested type and its comma…
        assert_eq!(
            text(spans[0]).concat(),
            "#[cfg(test)]audit:BTreeMap<u8,(u8,[u8;4])>,"
        );
        // …so the later sibling is outside every span, and the last
        // field's span stops before the struct's closing brace.
        assert_eq!(text(spans[1]).concat(), "#[cfg(test)]last:fn(u8)->Vec<u8>,");
        let later = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("later"))
            .unwrap();
        let idx = index(src);
        assert!(!idx.in_test_span(later));
        // A `where` clause's commas do not end a test item early.
        let src = "#[cfg(test)]\nfn h<T, U>(t: T) -> (T, U) where T: Clone, U: Copy {\n    \
                   todo!()\n}\nfn after() {}\n";
        let lexed = lex(src);
        let body = lexed.tokens.iter().position(|t| t.is_ident("todo"));
        let idx = index(src);
        assert!(idx.in_test_span(body.unwrap()));
        assert!(!idx.fns.iter().find(|f| f.name == "after").unwrap().is_test);
    }

    #[test]
    fn call_sites_record_receiver_chains() {
        let idx = index(
            "impl H {\n fn f(&self) {\n  self.tables.narrow.get(&k).go();\n  free(1);\n  Path::with(2);\n }\n}\n",
        );
        let calls = &idx.fns[0].calls;
        assert!(calls.iter().any(|c| matches!(&c.callee,
            Callee::Method { name, recv } if name == "go" && recv.len() == 4)));
        assert!(calls.iter().any(|c| matches!(&c.callee,
            Callee::Free { name } if name == "free")));
        assert!(calls.iter().any(|c| matches!(&c.callee,
            Callee::Path { qualifier: Some(q), name } if q == "Path" && name == "with")));
    }
}
