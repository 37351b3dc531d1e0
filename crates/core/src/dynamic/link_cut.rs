//! Array-based link-cut forest (Sleator & Tarjan, 1983) with a path-max
//! aggregate, the forest side of [`super::DynamicMsf`].
//!
//! Vertices are nodes `0..n`; every forest edge is a node of its own,
//! linked between its two endpoints and carrying the edge's canonical
//! `(w, u, v)` key. Vertex nodes carry the key `(0, 0, 0)`, which is below
//! every edge key (an edge has `v > u >= 0`), so the largest key on a
//! vertex-to-vertex path is always an edge node. Each node's splay subtree
//! tracks the node with the largest key, so `path_max` reads the answer off
//! one splay root.
//!
//! Every operation is O(log n) amortized. All traversals are iterative:
//! a freshly seeded path can hang 2n path-parent pointers deep.

/// Canonical `(w, u, v)` edge key with `u < v`; the engine's total order.
pub(super) type Key = (u32, u32, u32);

const NIL: u32 = u32::MAX;

/// Key of a vertex node: below every edge key.
const VERTEX_KEY: Key = (0, 0, 0);

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Splay children: left is shallower on the preferred path.
    ch: [u32; 2],
    /// Splay parent, or the path-parent when this node is a splay root.
    p: u32,
    /// Node with the largest key in this node's splay subtree.
    max: u32,
    key: Key,
    /// Pending reversal of this splay subtree (lazy re-rooting).
    flip: bool,
}

impl Node {
    fn new(id: u32, key: Key) -> Self {
        Self {
            ch: [NIL; 2],
            p: NIL,
            max: id,
            key,
            flip: false,
        }
    }
}

/// A forest over `n` vertices whose edges are nodes with keys.
#[derive(Debug)]
pub(super) struct LinkCut {
    nodes: Vec<Node>,
    /// Edge nodes released by [`LinkCut::remove`], reused before growing.
    free: Vec<u32>,
    /// Splay push-down scratch.
    stack: Vec<u32>,
}

impl LinkCut {
    /// `n` isolated vertices and no edges.
    pub(super) fn new(n: usize) -> Self {
        // A spanning forest adds up to n - 1 edge nodes, and NIL must stay
        // out of the id range.
        assert!(
            n <= (u32::MAX / 2) as usize,
            "vertex count exceeds the link-cut node range"
        );
        Self {
            nodes: (0..n as u32).map(|x| Node::new(x, VERTEX_KEY)).collect(),
            free: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Allocates an isolated edge node for `key`; [`LinkCut::insert`] or,
    /// when seeding, [`LinkCut::attach`] places it between its endpoints.
    pub(super) fn alloc(&mut self, key: Key) -> u32 {
        match self.free.pop() {
            Some(e) => {
                self.nodes[e as usize] = Node::new(e, key);
                e
            }
            None => {
                let e = self.nodes.len() as u32;
                self.nodes.push(Node::new(e, key));
                e
            }
        }
    }

    /// Seeding only: hangs the represented-tree root `child` (a node with
    /// no splay children, as every node is right after [`LinkCut::new`]
    /// and [`LinkCut::alloc`]) under `parent` by a path-parent pointer.
    /// Attaching a whole rooted forest this way, parents before or after
    /// children, costs O(n) and leaves one node per splay tree.
    pub(super) fn attach(&mut self, child: u32, parent: u32) {
        self.nodes[child as usize].p = parent;
    }

    /// Adds the edge `key = (w, u, v)` between `u` and `v`, which must be
    /// in different trees, and returns its node.
    pub(super) fn insert(&mut self, key: Key) -> u32 {
        let e = self.alloc(key);
        for x in [key.1, key.2] {
            self.make_root(x);
            self.nodes[x as usize].p = e;
        }
        e
    }

    /// Cuts edge node `e` from both endpoints and releases it.
    pub(super) fn remove(&mut self, e: u32) {
        let (_, u, v) = self.key(e);
        self.make_root(e);
        for x in [u, v] {
            // With `e` the root and `x` its child, `x`'s splay tree after
            // the access holds exactly the path e–x: `e` is its left child.
            self.access(x);
            debug_assert_eq!(self.nodes[x as usize].ch[0], e, "edge node not adjacent");
            self.nodes[x as usize].ch[0] = NIL;
            self.nodes[e as usize].p = NIL;
            self.pull(x);
        }
        self.free.push(e);
    }

    /// Key of node `x`.
    pub(super) fn key(&self, x: u32) -> Key {
        self.nodes[x as usize].key
    }

    /// Replaces edge node `e`'s key in place (same endpoints). After the
    /// access `e` is the root of its splay tree, so no other aggregate
    /// covers it.
    pub(super) fn set_key(&mut self, e: u32, key: Key) {
        debug_assert_eq!((key.1, key.2), (self.key(e).1, self.key(e).2));
        self.access(e);
        self.nodes[e as usize].key = key;
        self.pull(e);
    }

    /// The edge node with the largest key on the path between vertices
    /// `a != b`, or `None` when they are in different trees.
    pub(super) fn path_max(&mut self, a: u32, b: u32) -> Option<u32> {
        self.make_root(a);
        self.access(b);
        // `b`'s splay tree is now the path a..b when connected; its
        // shallowest node is the root of `b`'s tree.
        let mut r = b;
        loop {
            self.push(r);
            match self.nodes[r as usize].ch[0] {
                NIL => break,
                l => r = l,
            }
        }
        self.splay(r);
        (r == a).then_some(self.nodes[r as usize].max)
    }

    fn is_splay_root(&self, x: u32) -> bool {
        let p = self.nodes[x as usize].p;
        p == NIL || !self.nodes[p as usize].ch.contains(&x)
    }

    fn push(&mut self, x: u32) {
        let node = &mut self.nodes[x as usize];
        if node.flip {
            node.flip = false;
            node.ch.swap(0, 1);
            for c in node.ch {
                if c != NIL {
                    self.nodes[c as usize].flip ^= true;
                }
            }
        }
    }

    fn pull(&mut self, x: u32) {
        let mut m = x;
        for c in self.nodes[x as usize].ch {
            if c != NIL {
                let cm = self.nodes[c as usize].max;
                if self.nodes[cm as usize].key > self.nodes[m as usize].key {
                    m = cm;
                }
            }
        }
        self.nodes[x as usize].max = m;
    }

    /// Rotates `x` above its splay parent (both already pushed).
    fn rotate(&mut self, x: u32) {
        let p = self.nodes[x as usize].p;
        let g = self.nodes[p as usize].p;
        let dir = usize::from(self.nodes[p as usize].ch[1] == x);
        let b = self.nodes[x as usize].ch[dir ^ 1];
        if !self.is_splay_root(p) {
            let gd = usize::from(self.nodes[g as usize].ch[1] == p);
            self.nodes[g as usize].ch[gd] = x;
        }
        self.nodes[x as usize].p = g;
        self.nodes[x as usize].ch[dir ^ 1] = p;
        self.nodes[p as usize].p = x;
        self.nodes[p as usize].ch[dir] = b;
        if b != NIL {
            self.nodes[b as usize].p = p;
        }
        self.pull(p);
        self.pull(x);
    }

    /// Makes `x` the root of its splay tree.
    fn splay(&mut self, x: u32) {
        // Settle pending flips top-down along the splay path first.
        self.stack.clear();
        let mut y = x;
        self.stack.push(y);
        while !self.is_splay_root(y) {
            y = self.nodes[y as usize].p;
            self.stack.push(y);
        }
        while let Some(y) = self.stack.pop() {
            self.push(y);
        }
        while !self.is_splay_root(x) {
            let p = self.nodes[x as usize].p;
            if !self.is_splay_root(p) {
                let g = self.nodes[p as usize].p;
                let zig_zig =
                    (self.nodes[g as usize].ch[1] == p) == (self.nodes[p as usize].ch[1] == x);
                self.rotate(if zig_zig { p } else { x });
            }
            self.rotate(x);
        }
    }

    /// Makes the root-to-`x` path preferred, with `x` deepest on it and at
    /// the root of its splay tree.
    fn access(&mut self, x: u32) {
        let mut last = NIL;
        let mut y = x;
        while y != NIL {
            self.splay(y);
            self.nodes[y as usize].ch[1] = last;
            self.pull(y);
            last = y;
            y = self.nodes[y as usize].p;
        }
        self.splay(x);
    }

    /// Re-roots `x`'s tree at `x`.
    fn make_root(&mut self, x: u32) {
        self.access(x);
        self.nodes[x as usize].flip ^= true;
    }
}
