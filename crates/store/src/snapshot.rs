//! The columnar snapshot format: one self-contained, checksummed file
//! holding the full catalog state — schema, value dictionary, null
//! watermark, and every instance as per-relation columnar tuple arrays.
//!
//! ## Layout
//!
//! ```text
//! magic    [8]  "ICSTSNAP"
//! version  u32  format version (1)
//! crc32    u32  CRC-32 (IEEE) of the payload
//! len      u64  payload length in bytes
//! payload:
//!   applied     u64                              (catalog version this snapshot reflects)
//!   schema      nrels:u32, per rel { name:str, arity:u32, attr:str × arity }
//!   dictionary  count:u32, str × count          (constant strings in Sym order)
//!   nulls       u32                              (null watermark)
//!   instances   count:u32, instance-block × count
//! ```
//!
//! An instance block stores each relation **columnar**: the tuple-id
//! array, then per attribute a labeled-null tag bitmap followed by the
//! packed `u32` payload column (a `Sym` index or a `NullId`, per the tag
//! bit). Columns are contiguous and offsets are computable from counts
//! alone, so an mmap'd reader can jump to any column without touching the
//! rows — and `u32` columns decode with no per-cell branching beyond the
//! tag-bit test.
//!
//! ```text
//! instance-block:
//!   name      str
//!   nrels     u32
//!   id_bound  u64
//!   per relation {
//!     arity  u32
//!     count  u64
//!     ids    u32 × count                         (storage order)
//!     per attribute {
//!       tags     byte × ceil(count/8)            (bit i set ⇒ value i is a null)
//!       payload  u32 × count
//!     }
//!   }
//! ```
//!
//! ## Identity guarantees
//!
//! Decoding re-interns the dictionary **in symbol order** and verifies each
//! string lands on its original index, so every `Sym` in every column means
//! exactly what it meant when written; tuple ids, per-relation storage
//! order and burned (removed) ids round-trip through
//! [`Instance::restore`]. A reloaded catalog is therefore bit-identical to
//! the serialized one as far as any downstream algorithm can observe —
//! including the greedy signature matcher, whose scores depend on symbol
//! identity and id-ordered tie-breaks.

use crate::format::{corrupt, crc32, put_str, put_u32, put_u64, Reader, StoreError};
use ic_model::{
    Catalog, Instance, NullId, RelId, RelationSchema, Schema, Sym, Tuple, TupleId, Value,
};

/// Magic prefix of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ICSTSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A decoded snapshot: the catalog's value domains plus every named
/// instance, in name order.
#[derive(Debug)]
pub struct CatalogState {
    /// The catalog version (mutation count) this snapshot reflects. WAL
    /// records carry the version their op produced, so replay can skip
    /// records a crash left behind after they were already folded into
    /// the snapshot (install-then-truncate is not atomic as a pair).
    pub version: u64,
    /// The restored value domains (schema, interner, null watermark).
    pub catalog: Catalog,
    /// The restored instances as `(name, instance)` pairs.
    pub instances: Vec<(String, Instance)>,
}

/// Encodes the full catalog state into one checksummed snapshot buffer.
pub fn encode_snapshot<'a>(
    version: u64,
    catalog: &Catalog,
    instances: impl IntoIterator<Item = (&'a str, &'a Instance)>,
) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, version);

    let schema = catalog.schema();
    put_u32(&mut payload, schema.len() as u32);
    for rel in schema.rel_ids() {
        let r = schema.relation(rel);
        put_str(&mut payload, r.name());
        put_u32(&mut payload, r.arity() as u32);
        for attr in r.attrs() {
            put_str(&mut payload, attr);
        }
    }

    let interner = catalog.interner();
    put_u32(&mut payload, interner.len() as u32);
    for i in 0..interner.len() as u32 {
        put_str(&mut payload, interner.resolve(Sym(i)));
    }
    put_u32(&mut payload, catalog.nulls_allocated());

    let instances: Vec<_> = instances.into_iter().collect();
    put_u32(&mut payload, instances.len() as u32);
    for (name, instance) in instances {
        debug_assert_eq!(name, instance.name());
        encode_instance(&mut payload, instance);
    }

    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u32(&mut out, crc32(&payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decodes a snapshot buffer, verifying magic, version and checksum, and
/// restoring symbols, null watermark, tuple ids and storage order exactly
/// (see the module docs above).
pub fn decode_snapshot(bytes: &[u8]) -> Result<CatalogState, StoreError> {
    let mut r = Reader::new(bytes);
    if r.bytes(8)? != SNAPSHOT_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let checksum = r.u32()?;
    let len = r.u64()? as usize;
    if r.remaining() != len {
        return Err(corrupt(format!(
            "snapshot payload length mismatch: header says {len}, have {}",
            r.remaining()
        )));
    }
    let payload = r.bytes(len)?;
    if crc32(payload) != checksum {
        return Err(corrupt("snapshot checksum mismatch"));
    }

    let mut r = Reader::new(payload);
    let state_version = r.u64()?;
    let nrels = r.u32()?;
    let mut schema = Schema::new();
    for _ in 0..nrels {
        let name = r.str()?.to_string();
        let arity = r.u32()?;
        let attrs: Vec<String> = (0..arity)
            .map(|_| r.str().map(str::to_string))
            .collect::<Result<_, _>>()?;
        if schema.rel(&name).is_some() {
            return Err(corrupt(format!("duplicate relation {name:?} in schema")));
        }
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        if attr_refs.len()
            != attrs
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        {
            return Err(corrupt(format!("duplicate attribute in relation {name:?}")));
        }
        schema.add_relation(RelationSchema::new(name, &attr_refs));
    }

    let mut catalog = Catalog::new(schema);
    let dict = r.u32()?;
    for i in 0..dict {
        let s = r.str()?;
        let sym = catalog.sym(s);
        if sym.0 != i {
            return Err(corrupt(format!(
                "dictionary entry {i} re-interned to symbol {} ({s:?} duplicated?)",
                sym.0
            )));
        }
    }
    catalog.advance_nulls(r.u32()?);

    let count = r.u32()? as usize;
    // An instance block holds at least its name length, relation count
    // and id bound.
    if count > r.remaining() / 16 {
        return Err(corrupt("instance count exceeds remaining bytes"));
    }
    let mut instances = Vec::with_capacity(count);
    for _ in 0..count {
        let instance = decode_instance(&mut r, &catalog)?;
        instances.push((instance.name().to_string(), instance));
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after snapshot payload"));
    }
    Ok(CatalogState {
        version: state_version,
        catalog,
        instances,
    })
}

/// Encodes one instance as a columnar block (shared with WAL `Put`
/// records).
pub(crate) fn encode_instance(out: &mut Vec<u8>, instance: &Instance) {
    put_str(out, instance.name());
    put_u32(out, instance.num_relations() as u32);
    put_u64(out, instance.id_bound() as u64);
    for rel_idx in 0..instance.num_relations() {
        let tuples = instance.tuples(RelId(rel_idx as u16));
        let arity = tuples.first().map_or(0, Tuple::arity);
        put_u32(out, arity as u32);
        put_u64(out, tuples.len() as u64);
        for t in tuples {
            put_u32(out, t.id().0);
        }
        for a in 0..arity {
            // Null-tag bitmap, then the packed payload column.
            let mut tags = vec![0u8; tuples.len().div_ceil(8)];
            for (i, t) in tuples.iter().enumerate() {
                if t.values()[a].is_null() {
                    tags[i / 8] |= 1 << (i % 8);
                }
            }
            out.extend_from_slice(&tags);
            for t in tuples {
                let raw = match t.values()[a] {
                    Value::Const(s) => s.0,
                    Value::Null(n) => n.0,
                };
                put_u32(out, raw);
            }
        }
    }
}

/// Decodes one instance block, validating ids and value domains against
/// `catalog`.
pub(crate) fn decode_instance(
    r: &mut Reader<'_>,
    catalog: &Catalog,
) -> Result<Instance, StoreError> {
    let name = r.str()?.to_string();
    let nrels = r.u32()? as usize;
    let id_bound = r.u64()? as usize;
    let syms = catalog.interner().len() as u32;
    let nulls = catalog.nulls_allocated();

    let mut triples: Vec<(RelId, TupleId, Vec<Value>)> = Vec::new();
    for rel_idx in 0..nrels {
        let rel =
            RelId(u16::try_from(rel_idx).map_err(|_| corrupt("relation index overflows u16"))?);
        let arity = r.u32()? as usize;
        let count = r.u64()? as usize;
        if count > r.remaining() / 4 {
            return Err(corrupt("tuple count exceeds remaining bytes"));
        }
        let ids: Vec<u32> = (0..count).map(|_| r.u32()).collect::<Result<_, _>>()?;
        // Each column holds `count` tag bits and `count` values, so an
        // empty relation (written with arity 0) has no room for any.
        let column_bytes = count.div_ceil(8) + 4 * count;
        if arity > r.remaining().checked_div(column_bytes).unwrap_or(0) {
            return Err(corrupt("relation arity exceeds remaining bytes"));
        }
        let mut columns: Vec<Vec<Value>> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tags = r.bytes(count.div_ceil(8))?.to_vec();
            let mut column = Vec::with_capacity(count);
            for (i, _) in ids.iter().enumerate() {
                let raw = r.u32()?;
                let value = if tags[i / 8] & (1 << (i % 8)) != 0 {
                    if raw >= nulls {
                        return Err(corrupt(format!("null id {raw} beyond watermark {nulls}")));
                    }
                    Value::Null(NullId(raw))
                } else {
                    if raw >= syms {
                        return Err(corrupt(format!(
                            "symbol {raw} beyond dictionary size {syms}"
                        )));
                    }
                    Value::Const(Sym(raw))
                };
                column.push(value);
            }
            columns.push(column);
        }
        for (i, id) in ids.into_iter().enumerate() {
            let values: Vec<Value> = columns.iter().map(|c| c[i]).collect();
            triples.push((rel, TupleId(id), values));
        }
    }
    Instance::restore(name, nrels, id_bound, triples)
        .map_err(|e| corrupt(format!("instance restore: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::AttrId;

    fn build_state() -> (Catalog, Vec<(String, Instance)>) {
        let mut schema = Schema::new();
        schema.add_relation(RelationSchema::new("Conf", &["Name", "Year"]));
        schema.add_relation(RelationSchema::new("Org", &["Who"]));
        let mut cat = Catalog::new(schema);
        let conf = cat.schema().rel("Conf").unwrap();
        let org = cat.schema().rel("Org").unwrap();

        let mut a = Instance::new("a", &cat);
        let vldb = cat.konst("VLDB");
        let y = cat.konst("1975");
        let n = cat.fresh_null();
        a.insert(conf, vec![vldb, y]);
        a.insert(conf, vec![vldb, n]);
        a.insert(org, vec![n]);

        let mut b = Instance::new("b", &cat);
        let sig = cat.konst("SIGMOD");
        let m = cat.fresh_null();
        let burned = b.insert(conf, vec![sig, m]);
        b.insert(conf, vec![sig, y]);
        b.remove(burned); // leave a burned id behind

        (cat, vec![("a".into(), a), ("b".into(), b)])
    }

    fn encode_built() -> (Catalog, Vec<(String, Instance)>, Vec<u8>) {
        let (cat, instances) = build_state();
        let bytes = encode_snapshot(42, &cat, instances.iter().map(|(n, i)| (n.as_str(), i)));
        (cat, instances, bytes)
    }

    #[test]
    fn snapshot_roundtrips_domains_ids_and_order() {
        let (cat, instances, bytes) = encode_built();
        let state = decode_snapshot(&bytes).unwrap();

        assert_eq!(state.version, 42);
        assert!(state.catalog.schema().compatible_with(cat.schema()));
        assert_eq!(state.catalog.interner().len(), cat.interner().len());
        for i in 0..cat.interner().len() as u32 {
            assert_eq!(state.catalog.resolve(Sym(i)), cat.resolve(Sym(i)));
        }
        assert_eq!(state.catalog.nulls_allocated(), cat.nulls_allocated());

        assert_eq!(state.instances.len(), instances.len());
        for ((name, orig), (dname, dec)) in instances.iter().zip(&state.instances) {
            assert_eq!(name, dname);
            assert_eq!(dec.id_bound(), orig.id_bound());
            assert_eq!(dec.num_tuples(), orig.num_tuples());
            for id in 0..orig.id_bound() as u32 {
                assert_eq!(dec.tuple(TupleId(id)), orig.tuple(TupleId(id)));
                assert_eq!(dec.loc(TupleId(id)), orig.loc(TupleId(id)));
            }
        }
        // Values resolve to the same strings through the restored catalog.
        let a = &state.instances[0].1;
        assert_eq!(
            state
                .catalog
                .render(a.tuple(TupleId(0)).unwrap().value(AttrId(0))),
            "VLDB"
        );
    }

    #[test]
    fn snapshot_rejects_flipped_bits_and_bad_headers() {
        let (_, _, bytes) = encode_built();
        decode_snapshot(&bytes).unwrap();

        // Any single flipped payload bit fails the checksum.
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&corrupted),
            Err(StoreError::Corrupt(_))
        ));

        // Bad magic, bad version, truncated payload.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode_snapshot(&bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(decode_snapshot(&bad_version).is_err());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    /// Wraps `payload` in a snapshot header with a valid checksum, so a
    /// hostile payload reaches the structural checks.
    fn seal(payload: &[u8]) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, crc32(payload));
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out
    }

    /// The payload of an instance-free snapshot, without its trailing
    /// instance count.
    fn payload_before_instances() -> Vec<u8> {
        let cat = Catalog::new(Schema::single("R", &["A"]));
        let bytes = encode_snapshot(0, &cat, std::iter::empty());
        bytes[24..bytes.len() - 4].to_vec()
    }

    #[test]
    fn hostile_instance_count_is_corrupt() {
        let mut payload = payload_before_instances();
        put_u32(&mut payload, u32::MAX);
        assert!(matches!(
            decode_snapshot(&seal(&payload)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_arity_of_an_empty_relation_is_corrupt() {
        let mut payload = payload_before_instances();
        put_u32(&mut payload, 1); // instances
        put_str(&mut payload, "x");
        put_u32(&mut payload, 1); // relations
        put_u64(&mut payload, 0); // id bound
        put_u32(&mut payload, u32::MAX); // arity
        put_u64(&mut payload, 0); // tuples
        assert!(matches!(
            decode_snapshot(&seal(&payload)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_catalog_roundtrips() {
        let cat = Catalog::new(Schema::single("R", &["A"]));
        let bytes = encode_snapshot(0, &cat, std::iter::empty());
        let state = decode_snapshot(&bytes).unwrap();
        assert_eq!(state.version, 0);
        assert!(state.instances.is_empty());
        assert_eq!(state.catalog.interner().len(), 0);
    }
}
