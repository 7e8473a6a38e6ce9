//! The append-only WAL of catalog operations, and the one op vocabulary
//! ([`CatalogOp`]) shared by the wire protocol, the WAL, and the in-memory
//! snapshot swap.
//!
//! ## Record framing
//!
//! The WAL is a bare stream of self-checking records (the snapshot file
//! carries the magic/version header for the pair):
//!
//! ```text
//! record: len:u32 | crc32:u32 | payload(len)
//! ```
//!
//! ## Record payload
//!
//! Every record carries the catalog version its op produced and the
//! **domain delta** it introduced — the constants interned and nulls
//! drawn while building the op — followed by the op itself:
//!
//! ```text
//! seq:u64             catalog version this op produced
//! tag:u8              0 = Put, 1 = Patch, 2 = Remove
//! domain              base_syms:u32, new:u32, str × new, nulls_after:u32
//! name                str
//! Put                 instance-block (see crate::snapshot)
//! Patch               nops:u32, op × nops
//! Remove              (nothing)
//! ```
//!
//! The `seq` makes replay idempotent against the snapshot: compaction
//! installs the snapshot (the commit point) and *then* truncates the WAL,
//! so a crash in between leaves already-folded records behind —
//! [`read_records`] skips every record at or below the snapshot's version
//! instead of double-applying it.
//!
//! Replaying a record first applies the domain delta — re-interning the
//! new strings *in order* after verifying the interner is at exactly
//! `base_syms` entries — so every `Sym`/`NullId` the op references means
//! what it meant when logged, regardless of how the op was originally
//! built. A replayed catalog is bit-identical to the logged one.
//!
//! ## Torn-tail tolerance
//!
//! [`read_records`] stops at the first record whose frame is incomplete or
//! whose checksum fails — the signature of a crash mid-append — and
//! reports the length of the valid prefix so the caller can truncate the
//! torn bytes away (compaction does). A checksum-*valid* record that does
//! not decode is real corruption and is an error, never a panic.

use crate::format::{corrupt, crc32, put_str, put_u32, put_u8, Reader, StoreError};
use crate::snapshot::{decode_instance, encode_instance};
use ic_core::{Delta, DeltaOp};
use ic_model::{AttrId, Catalog, Instance, NullId, RelId, Sym, TupleId, Value};

/// One catalog mutation — the single op vocabulary spoken by the wire
/// protocol, the WAL, and `ServeCatalog::apply` in `ic-serve`.
///
/// `load`/`register`/replace all materialize to [`CatalogOp::Put`] (a
/// CSV load is *not* replayed from its directory — the files may have
/// changed — but from the instance it produced).
#[derive(Debug, Clone)]
pub enum CatalogOp {
    /// Register or replace the instance under `name`.
    Put {
        /// The catalog entry name.
        name: String,
        /// The instance, built against the catalog's value domains.
        instance: Instance,
    },
    /// Apply a tuple-level delta to the instance under `name`.
    Patch {
        /// The catalog entry name.
        name: String,
        /// The edits, in order.
        delta: Delta,
    },
    /// Remove the instance under `name`.
    Remove {
        /// The catalog entry name.
        name: String,
    },
}

impl CatalogOp {
    /// The catalog entry name the op targets.
    pub fn name(&self) -> &str {
        match self {
            CatalogOp::Put { name, .. }
            | CatalogOp::Patch { name, .. }
            | CatalogOp::Remove { name } => name,
        }
    }
}

/// The value-domain growth an op introduced: everything needed to make
/// the op's `Sym`s and `NullId`s mean the same thing on replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomainDelta {
    /// Interner length before the op ran.
    pub base_syms: u32,
    /// Strings interned by the op, in symbol order (`base_syms`,
    /// `base_syms + 1`, …).
    pub new_strings: Vec<String>,
    /// Null watermark after the op ran.
    pub nulls_after: u32,
}

impl DomainDelta {
    /// Captures the growth from `base_syms` interned strings to
    /// `after`'s current domains.
    pub fn capture(base_syms: usize, after: &Catalog) -> Self {
        let interner = after.interner();
        Self {
            base_syms: base_syms as u32,
            new_strings: (base_syms as u32..interner.len() as u32)
                .map(|i| interner.resolve(Sym(i)).to_string())
                .collect(),
            nulls_after: after.nulls_allocated(),
        }
    }

    /// Replays the growth onto `catalog`, verifying that every new string
    /// lands on exactly the symbol it had when captured. A catalog that is
    /// not at `base_syms` entries — replay out of order, or a dictionary
    /// drift — is corruption, not a panic.
    pub fn apply(&self, catalog: &mut Catalog) -> Result<(), StoreError> {
        if catalog.interner().len() != self.base_syms as usize {
            return Err(corrupt(format!(
                "domain delta expects {} interned symbols, catalog has {}",
                self.base_syms,
                catalog.interner().len()
            )));
        }
        for (i, s) in self.new_strings.iter().enumerate() {
            let sym = catalog.sym(s);
            let expected = self.base_syms + i as u32;
            if sym.0 != expected {
                return Err(corrupt(format!(
                    "domain string {s:?} re-interned to symbol {} (expected {expected})",
                    sym.0
                )));
            }
        }
        catalog.advance_nulls(self.nulls_after);
        Ok(())
    }
}

/// One WAL entry: an op plus the domain growth it introduced.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The catalog version this op produced (see the module docs on
    /// idempotent replay).
    pub seq: u64,
    /// The domain growth to replay before the op.
    pub domain: DomainDelta,
    /// The op itself.
    pub op: CatalogOp,
}

const TAG_PUT: u8 = 0;
const TAG_PATCH: u8 = 1;
const TAG_REMOVE: u8 = 2;

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_MODIFY: u8 = 2;

const VAL_CONST: u8 = 0;
const VAL_NULL: u8 = 1;

fn put_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Const(s) => {
            put_u8(out, VAL_CONST);
            put_u32(out, s.0);
        }
        Value::Null(n) => {
            put_u8(out, VAL_NULL);
            put_u32(out, n.0);
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<Value, StoreError> {
    let tag = r.u8()?;
    let raw = r.u32()?;
    match tag {
        VAL_CONST => Ok(Value::Const(Sym(raw))),
        VAL_NULL => Ok(Value::Null(NullId(raw))),
        other => Err(corrupt(format!("unknown value tag {other}"))),
    }
}

/// Encodes one record as a framed buffer ready for
/// [`crate::Storage::append_wal`].
pub fn encode_record(seq: u64, domain: &DomainDelta, op: &CatalogOp) -> Vec<u8> {
    let mut payload = Vec::new();
    let tag = match op {
        CatalogOp::Put { .. } => TAG_PUT,
        CatalogOp::Patch { .. } => TAG_PATCH,
        CatalogOp::Remove { .. } => TAG_REMOVE,
    };
    crate::format::put_u64(&mut payload, seq);
    put_u8(&mut payload, tag);
    put_u32(&mut payload, domain.base_syms);
    put_u32(&mut payload, domain.new_strings.len() as u32);
    for s in &domain.new_strings {
        put_str(&mut payload, s);
    }
    put_u32(&mut payload, domain.nulls_after);
    put_str(&mut payload, op.name());
    match op {
        CatalogOp::Put { instance, .. } => encode_instance(&mut payload, instance),
        CatalogOp::Patch { delta, .. } => {
            put_u32(&mut payload, delta.ops.len() as u32);
            for op in &delta.ops {
                match op {
                    DeltaOp::Insert { rel, values } => {
                        put_u8(&mut payload, OP_INSERT);
                        put_u32(&mut payload, rel.0 as u32);
                        put_u32(&mut payload, values.len() as u32);
                        for &v in values {
                            put_value(&mut payload, v);
                        }
                    }
                    DeltaOp::Delete { id } => {
                        put_u8(&mut payload, OP_DELETE);
                        put_u32(&mut payload, id.0);
                    }
                    DeltaOp::Modify { id, attr, value } => {
                        put_u8(&mut payload, OP_MODIFY);
                        put_u32(&mut payload, id.0);
                        put_u32(&mut payload, attr.0 as u32);
                        put_value(&mut payload, *value);
                    }
                }
            }
        }
        CatalogOp::Remove { .. } => {}
    }

    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Reads a record payload's `seq`, op tag and domain delta.
fn read_header(r: &mut Reader<'_>) -> Result<(u64, u8, DomainDelta), StoreError> {
    let seq = r.u64()?;
    let tag = r.u8()?;
    let base_syms = r.u32()?;
    let n_new = r.u32()?;
    let new_strings: Vec<String> = (0..n_new)
        .map(|_| r.str().map(str::to_string))
        .collect::<Result<_, _>>()?;
    let nulls_after = r.u32()?;
    let domain = DomainDelta {
        base_syms,
        new_strings,
        nulls_after,
    };
    Ok((seq, tag, domain))
}

/// Reads the rest of a record payload after its header: the op tagged
/// `tag`, decoded against `catalog_for_put`.
fn read_op(
    r: &mut Reader<'_>,
    tag: u8,
    catalog_for_put: &Catalog,
) -> Result<CatalogOp, StoreError> {
    let name = r.str()?.to_string();
    let op = match tag {
        TAG_PUT => CatalogOp::Put {
            name,
            instance: decode_instance(r, catalog_for_put)?,
        },
        TAG_PATCH => {
            let nops = r.u32()?;
            let mut ops = Vec::with_capacity(nops.min(1 << 20) as usize);
            for _ in 0..nops {
                let op = match r.u8()? {
                    OP_INSERT => {
                        let rel = r.u32()?;
                        let n = r.u32()?;
                        let values: Vec<Value> =
                            (0..n).map(|_| read_value(r)).collect::<Result<_, _>>()?;
                        DeltaOp::Insert {
                            rel: RelId(
                                u16::try_from(rel)
                                    .map_err(|_| corrupt("relation id overflows u16"))?,
                            ),
                            values,
                        }
                    }
                    OP_DELETE => DeltaOp::Delete {
                        id: TupleId(r.u32()?),
                    },
                    OP_MODIFY => {
                        let id = TupleId(r.u32()?);
                        let attr = r.u32()?;
                        DeltaOp::Modify {
                            id,
                            attr: AttrId(
                                u16::try_from(attr)
                                    .map_err(|_| corrupt("attribute id overflows u16"))?,
                            ),
                            value: read_value(r)?,
                        }
                    }
                    other => return Err(corrupt(format!("unknown delta op tag {other}"))),
                };
                ops.push(op);
            }
            CatalogOp::Patch {
                name,
                delta: Delta::new(ops),
            }
        }
        TAG_REMOVE => CatalogOp::Remove { name },
        other => return Err(corrupt(format!("unknown record tag {other}"))),
    };
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after WAL record payload"));
    }
    Ok(op)
}

/// Parses a WAL byte stream into records, replaying each record's domain
/// delta onto `catalog` as it goes (a `Put` instance block can only be
/// decoded against the domains in force when it was logged). Records at
/// or below `skip_through` — already folded into the snapshot by a
/// compaction whose WAL truncation was lost to a crash — are skipped
/// whole, domain delta included.
///
/// Returns the surviving records plus the byte length of the valid
/// prefix. A truncated or checksum-failing record — the torn tail of a
/// crashed append — ends parsing there; everything before it is returned,
/// the torn bytes are excluded from the prefix length, and **no error**
/// is raised. A checksum-valid record that fails to decode, or a
/// non-increasing sequence number, is genuine corruption and errors out.
pub fn read_records(
    bytes: &[u8],
    catalog: &mut Catalog,
    skip_through: u64,
) -> Result<(Vec<WalRecord>, usize), StoreError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut last_seq: Option<u64> = None;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            break; // empty or torn frame header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let checksum = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if rest.len() < 8 + len {
            break; // torn payload
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != checksum {
            break; // torn or bit-rotted tail: drop it and stop
        }
        let mut r = Reader::new(payload);
        let (seq, tag, domain) = read_header(&mut r)?;
        if last_seq.is_some_and(|last| seq <= last) {
            return Err(corrupt(format!(
                "WAL sequence went backwards ({seq} after {})",
                last_seq.unwrap()
            )));
        }
        last_seq = Some(seq);
        pos += 8 + len;
        if seq <= skip_through {
            continue; // already folded into the snapshot
        }
        // The domain delta must be in force before the instance block can
        // decode its symbols; applying before the full decode is safe
        // because a decode failure aborts the whole replay.
        domain.apply(catalog)?;
        let op = read_op(&mut r, tag, catalog)?;
        records.push(WalRecord { seq, domain, op });
    }
    Ok((records, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::Schema;

    fn catalog() -> Catalog {
        Catalog::new(Schema::single("R", &["A", "B"]))
    }

    fn put_record(seq: u64, cat: &mut Catalog, name: &str, rows: &[(&str, &str)]) -> Vec<u8> {
        let base = cat.interner().len();
        let mut inst = Instance::new(name, cat);
        for (a, b) in rows {
            let (va, vb) = (cat.konst(a), cat.konst(b));
            inst.insert(RelId(0), vec![va, vb]);
        }
        let domain = DomainDelta::capture(base, cat);
        encode_record(
            seq,
            &domain,
            &CatalogOp::Put {
                name: name.to_string(),
                instance: inst,
            },
        )
    }

    #[test]
    fn wal_records_roundtrip_through_replay() {
        let mut writer = catalog();
        let mut wal = Vec::new();
        wal.extend(put_record(1, &mut writer, "x", &[("a", "b"), ("c", "d")]));
        // A patch drawing a fresh null and a new constant.
        {
            let base = writer.interner().len();
            let v = writer.konst("patched");
            let n = writer.fresh_null();
            let domain = DomainDelta::capture(base, &writer);
            wal.extend(encode_record(
                2,
                &domain,
                &CatalogOp::Patch {
                    name: "x".into(),
                    delta: Delta::new(vec![
                        DeltaOp::Modify {
                            id: TupleId(0),
                            attr: AttrId(1),
                            value: v,
                        },
                        DeltaOp::Insert {
                            rel: RelId(0),
                            values: vec![v, n],
                        },
                        DeltaOp::Delete { id: TupleId(1) },
                    ]),
                },
            ));
        }
        wal.extend(encode_record(
            3,
            &DomainDelta::capture(writer.interner().len(), &writer),
            &CatalogOp::Remove { name: "x".into() },
        ));

        let mut reader = catalog();
        let (records, valid) = read_records(&wal, &mut reader, 0).unwrap();
        assert_eq!(valid, wal.len());
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Replay grew the reader catalog to exactly the writer's domains.
        assert_eq!(reader.interner().len(), writer.interner().len());
        assert_eq!(reader.nulls_allocated(), writer.nulls_allocated());
        assert_eq!(reader.resolve(Sym(4)), "patched");

        match &records[0].op {
            CatalogOp::Put { name, instance } => {
                assert_eq!(name, "x");
                assert_eq!(instance.num_tuples(), 2);
            }
            other => panic!("expected Put, got {other:?}"),
        }
        match &records[1].op {
            CatalogOp::Patch { delta, .. } => assert_eq!(delta.len(), 3),
            other => panic!("expected Patch, got {other:?}"),
        }
        assert!(matches!(&records[2].op, CatalogOp::Remove { name } if name == "x"));
    }

    #[test]
    fn torn_tail_is_dropped_at_every_truncation_point() {
        let mut writer = catalog();
        let mut wal = Vec::new();
        let first = put_record(1, &mut writer, "x", &[("a", "b")]);
        wal.extend_from_slice(&first);
        wal.extend(put_record(2, &mut writer, "y", &[("c", "d")]));

        for cut in first.len()..wal.len() {
            let mut reader = catalog();
            let (records, valid) = read_records(&wal[..cut], &mut reader, 0).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}: first record survives");
            assert_eq!(valid, first.len(), "cut at {cut}");
        }
        // Truncation inside the *first* record loses everything, cleanly.
        for cut in 0..first.len() {
            let mut reader = catalog();
            let (records, valid) = read_records(&wal[..cut], &mut reader, 0).unwrap();
            assert!(records.is_empty(), "cut at {cut}");
            assert_eq!(valid, 0);
        }
    }

    #[test]
    fn checksum_failing_tail_is_dropped_not_fatal() {
        let mut writer = catalog();
        let mut wal = put_record(1, &mut writer, "x", &[("a", "b")]);
        let second_start = wal.len();
        wal.extend(put_record(2, &mut writer, "y", &[("c", "d")]));
        // Flip one payload bit of the second record.
        let last = wal.len() - 1;
        wal[last] ^= 0x01;

        let mut reader = catalog();
        let (records, valid) = read_records(&wal, &mut reader, 0).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(valid, second_start);
    }

    #[test]
    fn replay_skips_records_already_folded_into_the_snapshot() {
        // Simulates a crash between snapshot rename and WAL truncation:
        // the WAL still holds records the snapshot already contains.
        let mut writer = catalog();
        let mut wal = Vec::new();
        wal.extend(put_record(1, &mut writer, "x", &[("a", "b")]));
        wal.extend(put_record(2, &mut writer, "y", &[("c", "d")]));

        // A reader whose catalog already reflects seq <= 1 (it has "x"'s
        // domain) replays only the second record.
        let mut reader = catalog();
        reader.konst("a");
        reader.konst("b");
        let (records, valid) = read_records(&wal, &mut reader, 1).unwrap();
        assert_eq!(valid, wal.len());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 2);
        assert!(matches!(&records[0].op, CatalogOp::Put { name, .. } if name == "y"));
        assert_eq!(reader.interner().len(), writer.interner().len());

        // Skipping everything replays nothing and touches no domains.
        let mut untouched = catalog();
        let (records, valid) = read_records(&wal, &mut untouched, 2).unwrap();
        assert_eq!(valid, wal.len());
        assert!(records.is_empty());
        assert_eq!(untouched.interner().len(), 0);
    }

    #[test]
    fn non_increasing_sequence_is_a_real_error() {
        let mut writer = catalog();
        let mut wal = Vec::new();
        wal.extend(put_record(2, &mut writer, "x", &[("a", "b")]));
        wal.extend(put_record(2, &mut writer, "y", &[("c", "d")]));
        let mut reader = catalog();
        assert!(matches!(
            read_records(&wal, &mut reader, 0),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn domain_delta_apply_verifies_base_and_order() {
        let mut writer = catalog();
        let base = writer.interner().len();
        writer.konst("one");
        writer.konst("two");
        let domain = DomainDelta::capture(base, &writer);

        let mut ok = catalog();
        domain.apply(&mut ok).unwrap();
        assert_eq!(ok.interner().len(), 2);

        // Wrong base: catalog already has an extra symbol.
        let mut drifted = catalog();
        drifted.konst("stray");
        assert!(matches!(
            domain.apply(&mut drifted),
            Err(StoreError::Corrupt(_))
        ));

        // Duplicate string inside the delta re-interns to a lower symbol.
        let dup = DomainDelta {
            base_syms: 0,
            new_strings: vec!["same".into(), "same".into()],
            nulls_after: 0,
        };
        assert!(matches!(
            dup.apply(&mut catalog()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn crc_valid_garbage_is_a_real_error() {
        // A record whose payload checksums fine but has an unknown tag.
        let payload = [99u8, 0, 0, 0, 0];
        let mut wal = Vec::new();
        put_u32(&mut wal, payload.len() as u32);
        put_u32(&mut wal, crc32(&payload));
        wal.extend_from_slice(&payload);
        let mut reader = catalog();
        assert!(matches!(
            read_records(&wal, &mut reader, 0),
            Err(StoreError::Corrupt(_))
        ));
    }
}
