//! The atlas binary format: versioned, checksummed, forward-compatible
//! serialization of a complete map snapshot.
//!
//! See `FORMAT.md` at the repository root for the byte-level layout and
//! the versioning policy. The short version:
//!
//! * an 8-byte magic (`b"ESLAMATL"`) and a `u32` format version;
//! * a sequence of self-delimiting **sections**, each
//!   `[u32 tag][u64 len][payload][u32 crc32]` — readers *skip* sections
//!   with unknown tags (forward compatibility: old readers ignore new
//!   data) and verify a CRC-32 over every payload they do consume;
//! * all integers and floats little-endian; `f64` round-trips
//!   bit-exactly.
//!
//! Decoding is **total**: corrupt, truncated or adversarial inputs
//! return a typed [`AtlasError`] — never a panic, and never an
//! attacker-controlled allocation (every element count is validated
//! against the bytes actually remaining before a `Vec` is sized).

use eslam_backend::keyframe::{Keyframe, KeyframeObservation};
use eslam_backend::{CovisibilityGraph, KeyframeStore};
use eslam_features::bow::{Vocabulary, VocabularyNode, VocabularyParts};
use eslam_features::Descriptor;
use eslam_geometry::{Mat3, Se3, Vec2, Vec3};
use std::io::{Read, Write};
use std::path::Path;

use crate::map::{Map, MapPoint, PointObservation};

/// File magic: the first 8 bytes of every atlas file.
pub const ATLAS_MAGIC: [u8; 8] = *b"ESLAMATL";
/// Current format version. Readers accept exactly this version;
/// additive evolution happens through new section tags instead (see
/// `FORMAT.md` for the policy).
pub const ATLAS_VERSION: u32 = 1;

/// Section tags of format version 1.
const TAG_MAP: u32 = 1;
const TAG_KEYFRAMES: u32 = 2;
const TAG_COVISIBILITY: u32 = 3;
const TAG_VOCABULARY: u32 = 4;

/// Everything that can go wrong reading or writing an atlas file.
/// Decoding never panics and never allocates more than the input can
/// justify — malformed files land in one of these variants.
#[derive(Debug)]
pub enum AtlasError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`ATLAS_MAGIC`].
    BadMagic,
    /// The file's format version is not [`ATLAS_VERSION`].
    UnsupportedVersion(u32),
    /// The file ended inside a header, section or value.
    Truncated,
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Tag of the corrupted section.
        tag: u32,
    },
    /// A required section is absent.
    MissingSection(&'static str),
    /// A section decoded structurally but violates a semantic
    /// invariant (duplicate landmark ids, cyclic vocabulary, …).
    Corrupt(String),
}

impl std::fmt::Display for AtlasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtlasError::Io(e) => write!(f, "atlas i/o error: {e}"),
            AtlasError::BadMagic => write!(f, "not an atlas file (bad magic)"),
            AtlasError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported atlas format version {v} (expected {ATLAS_VERSION})"
                )
            }
            AtlasError::Truncated => write!(f, "atlas file is truncated"),
            AtlasError::ChecksumMismatch { tag } => {
                write!(f, "atlas section {tag} failed its checksum")
            }
            AtlasError::MissingSection(name) => {
                write!(f, "atlas file is missing its {name} section")
            }
            AtlasError::Corrupt(why) => write!(f, "atlas file is corrupt: {why}"),
        }
    }
}

impl std::error::Error for AtlasError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AtlasError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AtlasError {
    fn from(e: std::io::Error) -> Self {
        AtlasError::Io(e)
    }
}

/// The decoded contents of an atlas file — the persisted sections,
/// before derived state (relocalization index, inverted landmark
/// index) is rebuilt on top.
#[derive(Debug, Clone)]
pub struct AtlasContents {
    /// The front-end landmark map.
    pub map: Map,
    /// The keyframe store.
    pub keyframes: KeyframeStore,
    /// The covisibility graph (one node per keyframe).
    pub covisibility: CovisibilityGraph,
    /// The trained vocabulary (with optional idf weights), when the
    /// saved run had one.
    pub vocabulary: Option<Vocabulary>,
}

// ---------------------------------------------------------------- CRC-32

/// Slice-by-8 tables of the CRC-32: `CRC_TABLES[0]` is the byte-wise
/// table, and `CRC_TABLES[k][b]` advances `CRC_TABLES[k - 1][b]` by one
/// more zero byte, so eight lookups fold eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), eight bytes per step
/// (slice-by-8), the tail byte by byte.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------- writer

/// Little-endian payload builder.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn vec2(&mut self, v: Vec2) {
        self.f64(v.x);
        self.f64(v.y);
    }
    fn vec3(&mut self, v: Vec3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }
    fn descriptor(&mut self, d: &Descriptor) {
        for w in d.words {
            self.u64(w);
        }
    }
    /// Pose as the raw row-major rotation matrix (9 floats) +
    /// translation (3 floats). Deliberately *not* a quaternion: the
    /// Mat3→quat→Mat3 round trip perturbs low-order bits, and the
    /// format promises bit-identical poses across save/load.
    fn se3(&mut self, pose: &Se3) {
        for row in pose.rotation.m {
            for v in row {
                self.f64(v);
            }
        }
        self.vec3(pose.translation);
    }
}

fn encode_map(map: &Map) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(map.len() as u64);
    for p in map.points() {
        e.u64(p.id);
        e.vec3(p.position);
        e.descriptor(&p.descriptor);
        e.u64(p.created_frame as u64);
        e.u64(p.last_matched_frame as u64);
        e.u64(p.observations.len() as u64);
        for obs in &p.observations {
            e.u64(obs.keyframe as u64);
            e.vec2(obs.pixel);
        }
    }
    e.buf
}

fn encode_keyframes(store: &KeyframeStore) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(store.len() as u64);
    for kf in store.keyframes() {
        e.u64(kf.frame_index as u64);
        e.f64(kf.timestamp);
        e.se3(&kf.pose_w2c);
        e.u64(kf.observations.len() as u64);
        for obs in &kf.observations {
            e.u64(obs.landmark);
            e.vec2(obs.pixel);
            e.vec3(obs.position);
        }
        e.u64(kf.descriptors.len() as u64);
        for d in &kf.descriptors {
            e.descriptor(d);
        }
    }
    e.buf
}

fn encode_covisibility(graph: &CovisibilityGraph) -> Vec<u8> {
    let mut e = Enc::default();
    let edges = graph.edges();
    e.u64(graph.len() as u64);
    e.u64(edges.len() as u64);
    for (a, b, w) in edges {
        e.u64(a as u64);
        e.u64(b as u64);
        e.u64(w as u64);
    }
    e.buf
}

fn encode_vocabulary(vocab: &Vocabulary) -> Vec<u8> {
    let parts = vocab.to_parts();
    let mut e = Enc::default();
    e.u64(parts.nodes.len() as u64);
    for node in &parts.nodes {
        e.descriptor(&node.centroid);
        // Word id + 1, with 0 = "internal node".
        e.u64(node.word.map_or(0, |w| w as u64 + 1));
        e.u64(node.children.len() as u64);
        for &c in &node.children {
            e.u64(c as u64);
        }
    }
    e.u64(parts.roots.len() as u64);
    for &r in &parts.roots {
        e.u64(r as u64);
    }
    e.u64(parts.words as u64);
    match &parts.idf {
        None => e.u64(0),
        Some(idf) => {
            e.u64(idf.len() as u64);
            for &w in idf {
                e.f64(w);
            }
        }
    }
    e.buf
}

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Serializes a complete atlas snapshot to its binary form.
pub fn encode_atlas(contents: &AtlasContents) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&ATLAS_MAGIC);
    out.extend_from_slice(&ATLAS_VERSION.to_le_bytes());
    push_section(&mut out, TAG_MAP, &encode_map(&contents.map));
    push_section(
        &mut out,
        TAG_KEYFRAMES,
        &encode_keyframes(&contents.keyframes),
    );
    push_section(
        &mut out,
        TAG_COVISIBILITY,
        &encode_covisibility(&contents.covisibility),
    );
    if let Some(vocab) = &contents.vocabulary {
        push_section(&mut out, TAG_VOCABULARY, &encode_vocabulary(vocab));
    }
    out
}

/// Serializes an atlas snapshot and writes it to `path` (via a
/// same-directory temporary file + rename, so a crash mid-write never
/// leaves a torn atlas behind).
pub fn save_atlas(contents: &AtlasContents, path: &Path) -> Result<(), AtlasError> {
    let bytes = encode_atlas(contents);
    let tmp = path.with_extension("atlas.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------- reader

/// Bounds-checked little-endian cursor. Every read that would pass the
/// end of the input returns [`AtlasError::Truncated`].
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], AtlasError> {
        if self.remaining() < n {
            return Err(AtlasError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, AtlasError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, AtlasError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` count of elements at least `min_size` bytes each,
    /// validated against the remaining input **before** any allocation
    /// is sized by it — a fabricated huge count in a tiny file is a
    /// [`AtlasError::Truncated`], not an OOM.
    fn count(&mut self, min_size: usize) -> Result<usize, AtlasError> {
        let n = self.u64()?;
        if n > (self.remaining() / min_size.max(1)) as u64 {
            return Err(AtlasError::Truncated);
        }
        Ok(n as usize)
    }

    fn usize_checked(&mut self) -> Result<usize, AtlasError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| AtlasError::Corrupt(format!("index {v} overflows usize")))
    }

    fn f64(&mut self) -> Result<f64, AtlasError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn vec2(&mut self) -> Result<Vec2, AtlasError> {
        Ok(Vec2::new(self.f64()?, self.f64()?))
    }

    fn vec3(&mut self) -> Result<Vec3, AtlasError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    fn descriptor(&mut self) -> Result<Descriptor, AtlasError> {
        Ok(Descriptor::from_words([
            self.u64()?,
            self.u64()?,
            self.u64()?,
            self.u64()?,
        ]))
    }

    fn se3(&mut self) -> Result<Se3, AtlasError> {
        let mut m = [[0.0f64; 3]; 3];
        for row in &mut m {
            for v in row.iter_mut() {
                *v = self.f64()?;
            }
        }
        let translation = self.vec3()?;
        Ok(Se3 {
            rotation: Mat3 { m },
            translation,
        })
    }
}

fn corrupt(why: String) -> AtlasError {
    AtlasError::Corrupt(why)
}

fn decode_map(payload: &[u8]) -> Result<Map, AtlasError> {
    let mut d = Dec::new(payload);
    // Each point is at least id + position + descriptor + 2 frames +
    // observation count = 8 + 24 + 32 + 16 + 8 bytes.
    let count = d.count(88)?;
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        let id = d.u64()?;
        let position = d.vec3()?;
        let descriptor = d.descriptor()?;
        let created_frame = d.usize_checked()?;
        let last_matched_frame = d.usize_checked()?;
        let obs_count = d.count(24)?;
        let mut observations = Vec::with_capacity(obs_count);
        for _ in 0..obs_count {
            observations.push(PointObservation {
                keyframe: d.usize_checked()?,
                pixel: d.vec2()?,
            });
        }
        points.push(MapPoint {
            id,
            position,
            descriptor,
            created_frame,
            last_matched_frame,
            observations,
        });
    }
    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes in map section".into()));
    }
    Map::from_points(points).map_err(corrupt)
}

fn decode_keyframes(payload: &[u8]) -> Result<KeyframeStore, AtlasError> {
    let mut d = Dec::new(payload);
    // frame_index + timestamp + pose (12 f64) + two counts.
    let count = d.count(128)?;
    let mut keyframes = Vec::with_capacity(count);
    for id in 0..count {
        let frame_index = d.usize_checked()?;
        let timestamp = d.f64()?;
        let pose_w2c = d.se3()?;
        let obs_count = d.count(48)?;
        let mut observations = Vec::with_capacity(obs_count);
        for _ in 0..obs_count {
            observations.push(KeyframeObservation {
                landmark: d.u64()?,
                pixel: d.vec2()?,
                position: d.vec3()?,
            });
        }
        let desc_count = d.count(32)?;
        let mut descriptors = Vec::with_capacity(desc_count);
        for _ in 0..desc_count {
            descriptors.push(d.descriptor()?);
        }
        keyframes.push(Keyframe {
            id,
            frame_index,
            timestamp,
            pose_w2c,
            observations,
            descriptors,
        });
    }
    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes in keyframe section".into()));
    }
    KeyframeStore::from_keyframes(keyframes).map_err(corrupt)
}

fn decode_covisibility(payload: &[u8]) -> Result<CovisibilityGraph, AtlasError> {
    let mut d = Dec::new(payload);
    let nodes = d.usize_checked()?;
    let edge_count = d.count(24)?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        edges.push((d.usize_checked()?, d.usize_checked()?, d.usize_checked()?));
    }
    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes in covisibility section".into()));
    }
    CovisibilityGraph::from_edges(nodes, &edges).map_err(corrupt)
}

fn decode_vocabulary(payload: &[u8]) -> Result<Vocabulary, AtlasError> {
    let mut d = Dec::new(payload);
    // centroid + word marker + child count.
    let node_count = d.count(48)?;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let centroid = d.descriptor()?;
        let word_marker = d.u64()?;
        let word = match word_marker {
            0 => None,
            w => Some(
                u32::try_from(w - 1)
                    .map_err(|_| corrupt(format!("word id {} overflows u32", w - 1)))?,
            ),
        };
        let child_count = d.count(8)?;
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            children.push(d.usize_checked()?);
        }
        nodes.push(VocabularyNode {
            centroid,
            children,
            word,
        });
    }
    let root_count = d.count(8)?;
    let mut roots = Vec::with_capacity(root_count);
    for _ in 0..root_count {
        roots.push(d.usize_checked()?);
    }
    let words = d.usize_checked()?;
    let idf_count = d.count(8)?;
    let idf = if idf_count == 0 {
        None
    } else {
        let mut idf = Vec::with_capacity(idf_count);
        for _ in 0..idf_count {
            idf.push(d.f64()?);
        }
        Some(idf)
    };
    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes in vocabulary section".into()));
    }
    Vocabulary::from_parts(VocabularyParts {
        nodes,
        roots,
        words,
        idf,
    })
    .map_err(corrupt)
}

/// Decodes an atlas from its binary form. Total: every malformed input
/// returns a typed [`AtlasError`].
pub fn decode_atlas(bytes: &[u8]) -> Result<AtlasContents, AtlasError> {
    let mut d = Dec::new(bytes);
    if d.take(8)? != ATLAS_MAGIC {
        return Err(AtlasError::BadMagic);
    }
    let version = d.u32()?;
    if version != ATLAS_VERSION {
        return Err(AtlasError::UnsupportedVersion(version));
    }

    let mut map = None;
    let mut keyframes = None;
    let mut covisibility = None;
    let mut vocabulary = None;
    while d.remaining() > 0 {
        let tag = d.u32()?;
        let len = d.u64()?;
        if len > d.remaining() as u64 {
            return Err(AtlasError::Truncated);
        }
        let payload = d.take(len as usize)?;
        let stored_crc = d.u32()?;
        // Unknown sections are *skipped* without checksum verification
        // (their CRC polynomial may differ in a future version); known
        // sections must verify before they are decoded.
        let known = matches!(
            tag,
            TAG_MAP | TAG_KEYFRAMES | TAG_COVISIBILITY | TAG_VOCABULARY
        );
        if !known {
            continue;
        }
        if crc32(payload) != stored_crc {
            return Err(AtlasError::ChecksumMismatch { tag });
        }
        // A known section may appear at most once — a duplicate means
        // the writer was confused, and "last one wins" would let an
        // attacker shadow a checksummed section with another.
        let slot_taken = match tag {
            TAG_MAP => map.is_some(),
            TAG_KEYFRAMES => keyframes.is_some(),
            TAG_COVISIBILITY => covisibility.is_some(),
            TAG_VOCABULARY => vocabulary.is_some(),
            _ => unreachable!(),
        };
        if slot_taken {
            return Err(corrupt(format!("duplicate section tag {tag}")));
        }
        match tag {
            TAG_MAP => map = Some(decode_map(payload)?),
            TAG_KEYFRAMES => keyframes = Some(decode_keyframes(payload)?),
            TAG_COVISIBILITY => covisibility = Some(decode_covisibility(payload)?),
            TAG_VOCABULARY => vocabulary = Some(decode_vocabulary(payload)?),
            _ => unreachable!(),
        }
    }

    let map = map.ok_or(AtlasError::MissingSection("map"))?;
    let keyframes = keyframes.ok_or(AtlasError::MissingSection("keyframes"))?;
    let covisibility = covisibility.ok_or(AtlasError::MissingSection("covisibility"))?;
    if covisibility.len() != keyframes.len() {
        return Err(corrupt(format!(
            "covisibility graph has {} nodes but the store has {} keyframes",
            covisibility.len(),
            keyframes.len()
        )));
    }
    Ok(AtlasContents {
        map,
        keyframes,
        covisibility,
        vocabulary,
    })
}

/// Reads and decodes an atlas file.
pub fn load_atlas(path: &Path) -> Result<AtlasContents, AtlasError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_atlas(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-wise CRC-32 loop: the oracle of the slice-by-8 `crc32`.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_check_value_and_the_bytewise_loop() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        // A pseudo-random buffer of a few MB, like an atlas section.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let bytes: Vec<u8> = (0..3 * 1024 * 1024 + 5)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // Every length 0–64 at every start offset 0–7: each split of
        // the eight-byte blocks and the byte-wise tail.
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "start {start} len {len}"
                );
            }
        }
        assert_eq!(crc32(&bytes), crc32_reference(&bytes));
    }

    fn desc(tag: u64) -> Descriptor {
        Descriptor::from_words([tag, !tag, tag ^ 0xdead_beef, tag.rotate_left(17)])
    }

    fn sample_contents() -> AtlasContents {
        let mut map = Map::new();
        for i in 0..8u64 {
            map.insert(
                Vec3::new(i as f64 * 0.25, -0.5, 2.0 + i as f64 * 0.01),
                desc(i),
                i as usize,
                0,
                Vec2::new(10.0 + i as f64, 20.0),
            );
        }
        map.record_observation(3, 1, Vec2::new(33.0, 44.0));

        let mut store = KeyframeStore::new();
        for k in 0..3usize {
            let pose = Se3::from_translation(Vec3::new(k as f64 * 0.1, 0.0, 0.0));
            let observations: Vec<KeyframeObservation> = (0..5u64)
                .map(|i| KeyframeObservation {
                    landmark: i,
                    pixel: Vec2::new(i as f64, k as f64),
                    position: Vec3::new(i as f64 * 0.1, 0.2, 2.0),
                })
                .collect();
            let descriptors: Vec<Descriptor> = (0..5u64).map(|i| desc(100 + i)).collect();
            store.push(k * 3, k as f64 / 30.0, pose, observations, descriptors);
        }

        let mut graph = CovisibilityGraph::new();
        for _ in 0..3 {
            graph.add_node();
        }
        graph.accumulate(0, 1, 5);
        graph.accumulate(1, 2, 4);

        let training: Vec<Descriptor> = (0..64).map(desc).collect();
        let mut vocabulary =
            Vocabulary::train(&training, &eslam_features::BowParams::default()).unwrap();
        vocabulary.train_idf(training.chunks(16));

        AtlasContents {
            map,
            keyframes: store,
            covisibility: graph,
            vocabulary: Some(vocabulary),
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let contents = sample_contents();
        let bytes = encode_atlas(&contents);
        let back = decode_atlas(&bytes).expect("decodes");
        assert_eq!(contents.map, back.map);
        assert_eq!(contents.keyframes, back.keyframes);
        assert_eq!(contents.covisibility, back.covisibility);
        assert_eq!(contents.vocabulary, back.vocabulary);
        // Stable ids resume above the persisted maximum.
        let mut reloaded = back.map;
        let next = reloaded.insert(Vec3::ZERO, desc(9), 0, 0, Vec2::new(0.0, 0.0));
        assert_eq!(next, 8, "ids never recycle across save/load");
    }

    #[test]
    fn vocabulary_section_is_optional() {
        let mut contents = sample_contents();
        contents.vocabulary = None;
        let bytes = encode_atlas(&contents);
        let back = decode_atlas(&bytes).expect("decodes");
        assert!(back.vocabulary.is_none());
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let contents = sample_contents();
        let mut bytes = encode_atlas(&contents);
        // Append a section with a future tag; readers of version 1
        // must ignore it entirely.
        push_section(&mut bytes, 0x7777, &[1, 2, 3, 4, 5]);
        let back = decode_atlas(&bytes).expect("unknown tag skipped");
        assert_eq!(contents.map, back.map);
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let contents = sample_contents();
        let mut bytes = encode_atlas(&contents);
        // Re-append a second (valid, checksummed) MAP section: "last
        // one wins" would let it shadow the first, so the decoder must
        // refuse the file outright.
        push_section(&mut bytes, TAG_MAP, &encode_map(&contents.map));
        assert!(matches!(decode_atlas(&bytes), Err(AtlasError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let bytes = encode_atlas(&sample_contents());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            decode_atlas(&wrong_magic),
            Err(AtlasError::BadMagic)
        ));
        let mut wrong_version = bytes;
        wrong_version[8] = 99;
        assert!(matches!(
            decode_atlas(&wrong_version),
            Err(AtlasError::UnsupportedVersion(99))
        ));
        assert!(matches!(decode_atlas(&[]), Err(AtlasError::Truncated)));
    }

    #[test]
    fn flipped_payload_bytes_fail_their_checksum() {
        let contents = sample_contents();
        let bytes = encode_atlas(&contents);
        // Flip one byte inside the first section's payload (after
        // magic + version + tag + len = 8 + 4 + 4 + 8 = 24).
        let mut corrupted = bytes;
        corrupted[30] ^= 0x01;
        assert!(matches!(
            decode_atlas(&corrupted),
            Err(AtlasError::ChecksumMismatch { tag: TAG_MAP })
        ));
    }

    #[test]
    fn truncation_never_panics_or_overallocates() {
        // With the optional vocabulary section omitted, every strict
        // prefix cuts a *required* section and must fail cleanly
        // (never panic, never OOM).
        let mut contents = sample_contents();
        let with_vocab = encode_atlas(&contents);
        contents.vocabulary = None;
        let bytes = encode_atlas(&contents);
        for len in 0..bytes.len() {
            assert!(
                decode_atlas(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        // A cut landing exactly on the section boundary before the
        // trailing optional vocabulary is, by design, a valid file.
        let truncated = decode_atlas(&with_vocab[..bytes.len()]).expect("boundary cut decodes");
        assert!(truncated.vocabulary.is_none());
        // Every other prefix of the vocabulary-bearing file fails too.
        for len in 0..with_vocab.len() {
            if len == bytes.len() {
                continue;
            }
            assert!(
                decode_atlas(&with_vocab[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn fabricated_huge_counts_are_rejected_before_allocating() {
        // A minimal file whose map section claims u64::MAX points.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&ATLAS_MAGIC);
        bytes.extend_from_slice(&ATLAS_VERSION.to_le_bytes());
        let payload = u64::MAX.to_le_bytes();
        push_section(&mut bytes, TAG_MAP, &payload);
        assert!(matches!(decode_atlas(&bytes), Err(AtlasError::Truncated)));
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let contents = sample_contents();
        let dir = std::env::temp_dir().join("eslam_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.atlas");
        save_atlas(&contents, &path).expect("save");
        let back = load_atlas(&path).expect("load");
        assert_eq!(contents.map, back.map);
        assert_eq!(contents.keyframes, back.keyframes);
        assert_eq!(contents.covisibility, back.covisibility);
        assert_eq!(contents.vocabulary, back.vocabulary);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_atlas(&dir.join("does_not_exist.atlas")),
            Err(AtlasError::Io(_))
        ));
    }
}
