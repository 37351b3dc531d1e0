//! Out-of-core shard sources.
//!
//! The sharded MSF pipeline (`ecl_mst::sharded`) never holds a whole edge
//! list: it pulls the emission multiset one *shard* at a time through the
//! [`EdgeShards`] trait and keeps only per-shard MSF survivors. A source
//! must satisfy exactly one invariant, the **partition law**:
//!
//! > for any `of ≥ 1`, the multiset union of `shard(0, of) … shard(of−1, of)`
//! > equals the full emission multiset — every emission lands in exactly one
//! > shard, none is duplicated, none is dropped.
//!
//! Order within and across shards is irrelevant: [`crate::GraphBuilder`]
//! canonicalizes by sorting, and the MSF merge re-sorts survivors anyway.
//!
//! Three source families are provided:
//!
//! * [`InMemoryShards`] — wraps an explicit triple list (tests, fuzzing,
//!   re-sharding a built graph's `edge_list()`).
//! * The deterministic chunked-RNG generators — they already emit by chunk
//!   at closed-form RNG offsets (DESIGN.md §14), so sharding is free:
//!   [`UniformRandomShards`] and [`GridShards`] route chunk `c` to shard
//!   `c mod of` and re-open the streams mid-way.
//! * [`BinaryFileShards`] — reads the ECL binary CSR format with the same
//!   header distrust as [`crate::io::from_binary`], for inputs that exist
//!   only on disk. Its shards are contiguous, emission-balanced row ranges
//!   cut at checkpoints recorded by one validating pass at open, so each
//!   shard call reads only its own slice of the file.

use crate::generators::random::UniformRandomShards;
use crate::generators::{grid, EMIT_CHUNK};
use crate::io::MAGIC;
use crate::par;
use crate::{VertexId, Weight};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One emitted edge: normalized endpoints (`u ≤ v` for generator sources)
/// plus weight, exactly what [`crate::GraphBuilder::add_edge`] consumes.
pub type ShardTriple = (VertexId, VertexId, Weight);

/// A partitioned edge stream (see the module docs for the partition law).
pub trait EdgeShards: Sync {
    /// Vertex count of the full (never necessarily materialized) graph.
    fn num_vertices(&self) -> usize;

    /// Emits shard `k` of `of`. Panics when `of == 0` or `k >= of`.
    fn shard(&self, k: usize, of: usize) -> Vec<ShardTriple>;

    /// Upper bound on the total emission count across all shards (used to
    /// size buffers and for logging, never for correctness).
    fn approx_edges(&self) -> usize;
}

/// An explicit triple list cut into [`EMIT_CHUNK`]-sized blocks dealt
/// round-robin: block `b` goes to shard `b mod of`, mirroring how the
/// generator sources deal their RNG chunks.
pub struct InMemoryShards {
    num_vertices: usize,
    edges: Vec<ShardTriple>,
}

impl InMemoryShards {
    /// Wraps an edge list. Endpoint order, self-loops and duplicates are
    /// passed through untouched: consumers normalize each triple to
    /// `u ≤ v` and drop loops and heavier duplicates, as
    /// [`crate::GraphBuilder`] does.
    pub fn new(num_vertices: usize, edges: Vec<ShardTriple>) -> Self {
        Self {
            num_vertices,
            edges,
        }
    }
}

impl EdgeShards for InMemoryShards {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn shard(&self, k: usize, of: usize) -> Vec<ShardTriple> {
        check_shard_index(k, of);
        let chunks = par::chunk_ranges(self.edges.len(), EMIT_CHUNK);
        let mut out = Vec::new();
        for c in (k..chunks.len()).step_by(of) {
            if chunks[c].is_empty() {
                continue;
            }
            out.extend_from_slice(&self.edges[chunks[c].clone()]);
        }
        out
    }

    fn approx_edges(&self) -> usize {
        self.edges.len()
    }
}

impl EdgeShards for UniformRandomShards {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn shard(&self, k: usize, of: usize) -> Vec<ShardTriple> {
        self.generate_shard(k, of)
    }

    fn approx_edges(&self) -> usize {
        self.approx_edges()
    }
}

/// The [`grid::grid2d`] emission as a shard source (stateless: row chunks
/// have closed-form weight offsets, so there is nothing to precompute).
pub struct GridShards {
    side: usize,
    seed: u64,
}

impl GridShards {
    /// Shard source for `grid2d(side, seed)`.
    pub fn new(side: usize, seed: u64) -> Self {
        assert!(side >= 1, "grid needs at least one vertex per side");
        Self { side, seed }
    }
}

impl EdgeShards for GridShards {
    fn num_vertices(&self) -> usize {
        self.side * self.side
    }

    fn shard(&self, k: usize, of: usize) -> Vec<ShardTriple> {
        grid::grid2d_shard(self.side, self.seed, k, of)
    }

    fn approx_edges(&self) -> usize {
        2 * self.side * (self.side - 1)
    }
}

fn check_shard_index(k: usize, of: usize) {
    assert!(of >= 1, "need at least one shard");
    assert!(k < of, "shard index {k} out of range for {of} shards");
}

/// Rows between open-time checkpoints. Shard boundaries sit on
/// checkpoints, so this is the granularity of shard balance; the table
/// costs one [`Checkpoint`] per stride (4 Ki entries at 2^24 vertices).
const CHECKPOINT_ROWS: usize = 4096;

/// Words per bulk read: 256 KiB of file per block.
const BLOCK_WORDS: usize = 1 << 16;

/// The stream state at the start of a row: the row, its first arc, and the
/// `u < v` emissions of all earlier rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Checkpoint {
    row: usize,
    arc: usize,
    emitted: usize,
}

/// Reads the ECL binary CSR format (`crate::io`) as a shard source with
/// bounded memory, emitting each undirected edge once (on its `u < v` arc).
///
/// The header is distrusted exactly like [`crate::io::from_binary`]: magic,
/// version, arc-count parity, and the payload length implied by the counts
/// are all checked against the file. A full validation pass at
/// construction verifies `row_starts` monotonicity and adjacency range,
/// counts the emissions, and records a sparse checkpoint every
/// `CHECKPOINT_ROWS` rows (plus the end). Shard `k` of `of` is the
/// contiguous row range between the first checkpoints at or past
/// `total·k/of` and `total·(k+1)/of` emissions, so every shard is within
/// one checkpoint window of an equal share. A shard call seeks to its
/// range's slices of `row_starts`, `adjacency` and `arc_weights`, reads
/// them in bulk blocks, never past the range's last arc, and re-checks
/// what it reads: the file length, the structure, and that the range's
/// first and last `row_starts` words and its emission count still match
/// the checkpoints. Any mismatch means the file changed underneath the
/// source, and the shard call panics rather than return edges. Both walks
/// take a row's arcs a block-bounded slice at a time, with one range check
/// and one emission count per slice. Memory is `O(n / CHECKPOINT_ROWS)`
/// plus the shard itself and one read block per stream, never an `O(n)`
/// array.
pub struct BinaryFileShards {
    path: PathBuf,
    num_vertices: usize,
    arcs: usize,
    checkpoints: Vec<Checkpoint>,
}

impl BinaryFileShards {
    /// Opens and validates `path`, reading `row_starts` and `adjacency`
    /// once.
    pub fn open(path: &Path) -> Result<Self, crate::io::BinaryError> {
        let mut src = Self {
            path: path.to_path_buf(),
            num_vertices: 0,
            arcs: 0,
            checkpoints: Vec::new(),
        };
        let file = src.open_file()?;
        let (n, arcs) = read_header(&file, &src.path)?;
        src.num_vertices = n;
        src.arcs = arcs;
        src.check_len(&file)?;
        // The emission count comes from the stream, not `arcs / 2`: a
        // malformed file could hold mirrorless arcs.
        let start = Checkpoint {
            row: 0,
            arc: 0,
            emitted: 0,
        };
        let mut checkpoints = Vec::with_capacity(n / CHECKPOINT_ROWS + 2);
        let end = src.walk(&file, start, (n, arcs), None, |c| {
            if c.row % CHECKPOINT_ROWS == 0 {
                checkpoints.push(c);
            }
        })?;
        if end.arc != arcs {
            return Err(
                format!("row_starts ends at {}, expected arc count {arcs}", end.arc).into(),
            );
        }
        checkpoints.push(end);
        src.checkpoints = checkpoints;
        Ok(src)
    }

    fn open_file(&self) -> Result<File, crate::io::BinaryError> {
        File::open(&self.path).map_err(|e| format!("open {}: {e}", self.path.display()).into())
    }

    /// Byte offsets of `row_starts[row]`, `adjacency[arc]` and
    /// `arc_weights[arc]`.
    fn row_at(&self, row: usize) -> u64 {
        16 + 4 * row as u64
    }

    fn adj_at(&self, arc: usize) -> u64 {
        self.row_at(self.num_vertices + 1) + 4 * arc as u64
    }

    fn wts_at(&self, arc: usize) -> u64 {
        self.adj_at(self.arcs + arc)
    }

    /// Checks the file length against the header counts (`u64`, so a
    /// header can never overflow into a spurious match).
    fn check_len(&self, file: &File) -> Result<(), crate::io::BinaryError> {
        let (n, arcs) = (self.num_vertices as u64, self.arcs as u64);
        let len = file
            .metadata()
            .map_err(|e| format!("stat {}: {e}", self.path.display()))?
            .len();
        let need = 16 + 4 * ((n + 1) + 3 * arcs);
        if len != need {
            return Err(format!(
                "file length {len} disagrees with header counts (n={n}, arcs={arcs}): \
                 expected {need}"
            )
            .into());
        }
        Ok(())
    }

    fn end(&self) -> Checkpoint {
        *self.checkpoints.last().expect("open records the end")
    }

    /// The checkpoint shard `k` of `of` starts at: the first one at or
    /// past `total·k/of` emissions, and the end for `k == of`.
    fn boundary(&self, k: usize, of: usize) -> Checkpoint {
        let end = self.end();
        if k == of {
            return end;
        }
        let target = (end.emitted as u128 * k as u128 / of as u128) as usize;
        self.checkpoints[self.checkpoints.partition_point(|c| c.emitted < target)]
    }

    /// Walks rows `from.row..to_row`, whose arcs end at `arc_end`,
    /// validating structure, handing `at_row` the state at the start of
    /// every row and, when `out` is given, appending every `u < v` arc
    /// with its weight to it. Reads exactly `row_starts[from.row..=to_row]`
    /// and the range's arcs (weights only for `out`), and returns the
    /// state at `to_row`.
    fn walk(
        &self,
        file: &File,
        from: Checkpoint,
        (to_row, arc_end): (usize, usize),
        mut out: Option<&mut Vec<ShardTriple>>,
        mut at_row: impl FnMut(Checkpoint),
    ) -> Result<Checkpoint, crate::io::BinaryError> {
        let (n, arcs) = (self.num_vertices, self.arcs);
        let arc_words = arc_end - from.arc;
        let mut rows = Words::new(file, self.row_at(from.row), to_row - from.row + 1);
        let mut adj = Words::new(file, self.adj_at(from.arc), arc_words);
        let mut wts = out
            .is_some()
            .then(|| Words::new(file, self.wts_at(from.arc), arc_words));

        let first = rows.take(1)?[0] as usize;
        if first != from.arc {
            return Err(
                format!("row_starts[{}] = {first}, expected {}", from.row, from.arc).into(),
            );
        }
        let mut at = from;
        while at.row < to_row {
            for &row_end in rows.take(to_row - at.row)? {
                let (u, row_end) = (at.row as u32, row_end as usize);
                at_row(at);
                if row_end < at.arc || row_end > arcs {
                    return Err(format!(
                        "row_starts not monotone within bounds at vertex {u}: \
                         {} -> {row_end} (arcs {arcs})",
                        at.arc
                    )
                    .into());
                }
                // The row's arcs, one block-bounded slice at a time. Both
                // arc streams start at `from.arc` and refill every
                // `BLOCK_WORDS` words, so their slices pair up exactly.
                while at.arc < row_end {
                    let targets = adj.take(row_end - at.arc)?;
                    // One pass per slice: the largest target and the
                    // number of `u < v` arcs, appended as they are met. A
                    // bad target fails the walk, so what a failed slice
                    // appended is never handed out.
                    let (hi, emitted) = match (out.as_deref_mut(), wts.as_mut()) {
                        (Some(out), Some(wts)) => {
                            let ws = wts.take(targets.len())?;
                            assert_eq!(ws.len(), targets.len(), "arc streams out of step");
                            let before = out.len();
                            let mut hi = 0;
                            for (&v, &w) in targets.iter().zip(ws) {
                                hi = hi.max(v);
                                if u < v {
                                    out.push((u, v, w));
                                }
                            }
                            (hi, out.len() - before)
                        }
                        _ => targets
                            .iter()
                            .fold((0, 0), |(hi, c), &v| (hi.max(v), c + usize::from(u < v))),
                    };
                    if hi as usize >= n {
                        let v = targets
                            .iter()
                            .find(|&&v| v as usize >= n)
                            .expect("the largest is out of range");
                        return Err(format!("adjacency target {v} out of range (n {n})").into());
                    }
                    at.emitted += emitted;
                    at.arc += targets.len();
                }
                at.row += 1;
            }
        }
        Ok(at)
    }

    /// Appends the edges of the rows between two checkpoints to `out`,
    /// re-checking the file against what `open` recorded.
    fn read_range(
        &self,
        from: Checkpoint,
        to: Checkpoint,
        out: &mut Vec<ShardTriple>,
    ) -> Result<(), crate::io::BinaryError> {
        let file = self.open_file()?;
        self.check_len(&file)?;
        let end = self.walk(&file, from, (to.row, to.arc), Some(out), |_| {})?;
        if end != to {
            return Err(format!(
                "rows {}..{} end at arc {} with {} emissions, recorded arc {} with {}",
                from.row, to.row, end.arc, end.emitted, to.arc, to.emitted
            )
            .into());
        }
        Ok(())
    }
}

impl EdgeShards for BinaryFileShards {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn shard(&self, k: usize, of: usize) -> Vec<ShardTriple> {
        check_shard_index(k, of);
        let (from, to) = (self.boundary(k, of), self.boundary(k + 1, of));
        let mut out = Vec::with_capacity(to.emitted - from.emitted);
        self.read_range(from, to, &mut out)
            .expect("validated at open; file changed underneath the shard stream");
        out
    }

    fn approx_edges(&self) -> usize {
        self.end().emitted
    }
}

/// Reads and checks the 16-byte header: magic, version, arc-count parity.
fn read_header(mut file: &File, path: &Path) -> Result<(usize, usize), crate::io::BinaryError> {
    let mut header = [0u8; 16];
    file.read_exact(&mut header)
        .map_err(|e| format!("short read of the header of {}: {e}", path.display()))?;
    let word = |i: usize| u32::from_le_bytes(header[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    let (magic, version) = (word(0), word(1));
    if magic != MAGIC {
        return Err(format!("bad magic {magic:#x}, expected {MAGIC:#x}").into());
    }
    if version != crate::io::VERSION {
        return Err(format!("unsupported version {version}").into());
    }
    let (n, arcs) = (word(2), word(3));
    if !arcs.is_multiple_of(2) {
        return Err(format!(
            "header arc count {arcs} is odd (undirected graphs store mirror arc pairs)"
        )
        .into());
    }
    Ok((n as usize, arcs as usize))
}

/// Little-endian `u32` words from one slice of a file, read in blocks of
/// [`BLOCK_WORDS`] and never past the slice's end.
struct Words<'f> {
    file: &'f File,
    /// Byte offset of the next unread block.
    pos: u64,
    /// Words of the slice not yet read from the file.
    left: usize,
    bytes: Vec<u8>,
    block: Vec<u32>,
    next: usize,
}

impl<'f> Words<'f> {
    fn new(file: &'f File, pos: u64, words: usize) -> Self {
        Self {
            file,
            pos,
            left: words,
            bytes: Vec::new(),
            block: Vec::new(),
            next: 0,
        }
    }

    /// The next `want` words of the slice, or fewer: never more than the
    /// current block holds. Refills first when the block is used up, so
    /// the slice is empty only when `want` is 0.
    fn take(&mut self, want: usize) -> Result<&[u32], crate::io::BinaryError> {
        if self.next == self.block.len() {
            self.refill()?;
        }
        let start = self.next;
        self.next += want.min(self.block.len() - start);
        Ok(&self.block[start..self.next])
    }

    fn refill(&mut self) -> Result<(), crate::io::BinaryError> {
        let take = self.left.min(BLOCK_WORDS);
        if take == 0 {
            return Err("read past the end of the shard's range".to_string().into());
        }
        self.bytes.resize(4 * take, 0);
        let mut file = self.file;
        file.seek(SeekFrom::Start(self.pos))
            .and_then(|_| file.read_exact(&mut self.bytes))
            .map_err(|e| crate::io::BinaryError::Format(format!("short read: {e}")))?;
        self.block.clear();
        self.block.extend(
            self.bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
        self.pos += 4 * take as u64;
        self.left -= take;
        self.next = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid2d, uniform_random};
    use crate::GraphBuilder;

    /// Rebuilds a graph from the union of all shards and checks it equals
    /// the monolith — the partition law, end to end.
    fn union_rebuilds(src: &dyn EdgeShards, of: usize, monolith: &crate::CsrGraph) {
        let mut all = Vec::new();
        for k in 0..of {
            all.extend(src.shard(k, of));
        }
        let mut b = GraphBuilder::new(src.num_vertices());
        for (u, v, w) in all {
            b.add_edge(u, v, w);
        }
        assert_eq!(&b.build(), monolith, "shard union diverged at K={of}");
    }

    #[test]
    fn uniform_random_shards_partition_law() {
        let mono = uniform_random(2000, 8.0, 5);
        let src = UniformRandomShards::new(2000, 8.0, 5);
        for of in [1, 2, 3, 7, 64] {
            union_rebuilds(&src, of, &mono);
        }
    }

    #[test]
    fn grid_shards_partition_law() {
        let mono = grid2d(40, 9);
        let src = GridShards::new(40, 9);
        for of in [1, 2, 5, 100] {
            union_rebuilds(&src, of, &mono);
        }
    }

    #[test]
    fn in_memory_shards_partition_law() {
        let mono = uniform_random(500, 6.0, 3);
        let src = InMemoryShards::new(mono.num_vertices(), mono.edge_list());
        for of in [1, 2, 4, 9] {
            union_rebuilds(&src, of, &mono);
        }
        assert_eq!(src.approx_edges(), mono.num_edges());
    }

    #[test]
    fn shards_are_disjoint_slices() {
        // Partition, not cover: total size must match exactly.
        let src = UniformRandomShards::new(1000, 8.0, 11);
        let full: usize = (0..4).map(|k| src.shard(k, 4).len()).sum();
        assert_eq!(full, src.shard(0, 1).len());
    }

    /// Writes `g` to a file in a temp dir of its own (tests run in
    /// parallel) and returns the dir and the file.
    fn write_temp(g: &crate::CsrGraph, test: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ecl-shard-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        crate::io::write_binary(g, &path).unwrap();
        (dir, path)
    }

    #[test]
    fn file_shards_roundtrip_and_validate() {
        let g = uniform_random(600, 8.0, 13);
        let (dir, path) = write_temp(&g, "roundtrip");

        let src = BinaryFileShards::open(&path).unwrap();
        assert_eq!(src.num_vertices(), 600);
        assert_eq!(src.approx_edges(), g.num_edges());
        for of in [1, 3] {
            union_rebuilds(&src, of, &g);
        }

        // Header distrust: flip the magic and the arc count.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(dir.join("badmagic.bin"), &bytes).unwrap();
        assert!(BinaryFileShards::open(&dir.join("badmagic.bin")).is_err());
        bytes[0] ^= 0xFF;
        bytes[12] ^= 0x01; // arc count: odd and length-mismatched
        std::fs::write(dir.join("badarcs.bin"), &bytes).unwrap();
        assert!(BinaryFileShards::open(&dir.join("badarcs.bin")).is_err());
        std::fs::write(dir.join("trunc.bin"), &bytes[..bytes.len() / 2]).unwrap();
        assert!(BinaryFileShards::open(&dir.join("trunc.bin")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_shards_are_balanced_row_ranges() {
        // Three full checkpoint strides plus a partial one.
        let g = uniform_random(3 * CHECKPOINT_ROWS + 1000, 6.0, 21);
        let (dir, path) = write_temp(&g, "ranges");
        let src = BinaryFileShards::open(&path).unwrap();
        let checkpoints = src.checkpoints.len();
        assert_eq!(checkpoints, 5, "rows 0, 1, 2 and 3 strides, plus the end");
        let window = src
            .checkpoints
            .windows(2)
            .map(|w| w[1].emitted - w[0].emitted)
            .max()
            .unwrap();
        let total = src.approx_edges();
        for of in [1, 2, 3, 8, 64] {
            union_rebuilds(&src, of, &g);
            let lens: Vec<usize> = (0..of).map(|k| src.shard(k, of).len()).collect();
            for (k, len) in lens.iter().enumerate() {
                assert!(
                    len.abs_diff(total / of) <= window,
                    "K={of}: shard {k} holds {len} of {total} emissions (window {window})"
                );
            }
            if of > checkpoints {
                assert!(lens.contains(&0), "K={of} must leave some shards empty");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `f` must panic with the file-changed message rather than return.
    fn assert_file_changed(f: impl FnOnce() -> Vec<ShardTriple>) {
        let err = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(edges) => panic!("a shard of a changed file returned {} edges", edges.len()),
            Err(err) => err,
        };
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("file changed underneath"), "{msg}");
    }

    #[test]
    fn file_shards_detect_a_changed_file() {
        let g = uniform_random(3 * CHECKPOINT_ROWS + 1000, 6.0, 22);
        let (dir, path) = write_temp(&g, "changed");
        let src = BinaryFileShards::open(&path).unwrap();
        let (from, to) = (src.boundary(1, 3), src.boundary(2, 3));
        assert!(from.row + 1 < to.row, "shard 1 spans several rows");
        let pristine = std::fs::read(&path).unwrap();
        let patch_row_start = |row: usize, value: u32| {
            let mut bytes = pristine.clone();
            bytes[16 + 4 * row..][..4].copy_from_slice(&value.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
        };

        // Shard 1's first row start, moved by one arc: only the offset
        // recorded at open can tell.
        patch_row_start(from.row, from.arc as u32 + 1);
        assert_file_changed(|| src.shard(1, 3));
        // Its last row start, moved back by one arc: the range would end
        // one arc early.
        patch_row_start(to.row, to.arc as u32 - 1);
        assert_file_changed(|| src.shard(1, 3));
        // A row start inside the range, past the arc count.
        patch_row_start((from.row + to.row) / 2, u32::MAX);
        assert_file_changed(|| src.shard(1, 3));
        // One word short: shard 1's own slices are intact.
        std::fs::write(&path, &pristine[..pristine.len() - 4]).unwrap();
        assert_file_changed(|| src.shard(1, 3));

        std::fs::write(&path, &pristine).unwrap();
        union_rebuilds(&src, 3, &g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_shards_reject_a_bad_target_at_a_block_boundary() {
        // A star: row 0 lists every other vertex, so its arcs fill more
        // than two read blocks and both words either side of the first
        // block boundary lie inside that one row.
        let n = 2 * BLOCK_WORDS + 1000;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(0, v, v % 97);
        }
        let g = b.build();
        let (dir, path) = write_temp(&g, "boundary");
        let pristine = std::fs::read(&path).unwrap();
        let adjacency = 16 + 4 * (n + 1);
        let corrupt = |bad: &[(usize, u32)]| {
            let mut bytes = pristine.clone();
            for &(arc, target) in bad {
                bytes[adjacency + 4 * arc..][..4].copy_from_slice(&target.to_le_bytes());
            }
            std::fs::write(&path, bytes).unwrap();
        };
        let (last, first) = (BLOCK_WORDS - 1, BLOCK_WORDS);
        let (t_last, t_first) = (n as u32 + 7, u32::MAX);
        let src = BinaryFileShards::open(&path).unwrap();
        for bad in [
            vec![(last, t_last)],
            vec![(first, t_first)],
            vec![(first, t_first), (last, t_last)],
        ] {
            corrupt(&bad);
            // The error names the bad target that comes first in the file.
            let named = bad.iter().min().unwrap().1;
            let err = BinaryFileShards::open(&path)
                .err()
                .expect("open must reject");
            assert!(
                err.to_string()
                    .contains(&format!("adjacency target {named} out of range")),
                "{err}"
            );
            assert_file_changed(|| src.shard(0, 1));
        }
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(src.shard(0, 1), g.edge_list());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_bounds_checked() {
        InMemoryShards::new(1, Vec::new()).shard(2, 2);
    }
}
