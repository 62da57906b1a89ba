package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"l15cache/internal/dag"
)

// FormatVersion is the version byte of the canonical trial encoding. It
// is hashed into every key, so bumping it orphans every stored entry at
// once — the escape hatch for any change to the encoding below or to the
// semantics of what a stored result means.
const FormatVersion byte = 1

// domainPrefix opens every encoding: a fixed module tag plus the format
// version. Hash-domain separation at the root — no other SHA-256 user in
// this module (or elsewhere) hashes byte streams starting with this
// prefix, so memo keys cannot collide with foreign digests.
const domainPrefix = "l15cache/memo\x00"

// Field tag bytes. Every field is tagged, so a float can never be
// reinterpreted as an int by a reader with a stale schema, and two
// adjacent variable-length fields can never re-split ambiguously.
const (
	tagStr   byte = 0x01
	tagI64   byte = 0x02
	tagU64   byte = 0x03
	tagF64   byte = 0x04
	tagBool  byte = 0x05
	tagBytes byte = 0x06
	tagTask  byte = 0x07
	tagTrial byte = 0xFF // closes a fingerprint when a trial key is derived
)

// Encoder builds the canonical, versioned byte encoding of a trial input
// that memo keys hash. Fields are appended as (tag, name, value) records
// — name included — so reordering, renaming or retyping a config field
// changes every key it contributes to, and an accidental field-order swap
// between writer and reader cannot alias two different inputs.
//
// The rule for what to encode (DESIGN.md §12): every input that can
// influence the trial's result, and nothing that cannot. Observability
// attachments (recorders, tracers, registries) and operational knobs
// (worker counts, cache directories) stay out; model parameters, kernel
// mode and workload descriptors go in.
type Encoder struct {
	buf []byte
}

// NewEncoder starts an encoding for the given domain — the sweep family,
// e.g. "prop-makespan" or "casestudy". Two sweeps whose trials compute
// different things must use different domains even if their numeric
// configurations coincide; two call sites computing the *same* trial
// function should share one, so their caches interoperate.
func NewEncoder(domain string) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 256)}
	e.buf = append(e.buf, domainPrefix...)
	e.buf = append(e.buf, FormatVersion)
	e.appendLenBytes([]byte(domain))
	return e
}

func (e *Encoder) appendLenBytes(b []byte) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *Encoder) field(tag byte, name string) {
	e.buf = append(e.buf, tag)
	e.appendLenBytes([]byte(name))
}

// Str appends a named string field.
func (e *Encoder) Str(name, v string) {
	e.field(tagStr, name)
	e.appendLenBytes([]byte(v))
}

// I64 appends a named signed-integer field (ints of any width widen here).
func (e *Encoder) I64(name string, v int64) {
	e.field(tagI64, name)
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v))
}

// U64 appends a named unsigned-integer field.
func (e *Encoder) U64(name string, v uint64) {
	e.field(tagU64, name)
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// F64 appends a named float field as its exact IEEE-754 bit pattern —
// no decimal rendering, so values differing in one ulp key differently.
func (e *Encoder) F64(name string, v float64) {
	e.field(tagF64, name)
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends a named boolean field.
func (e *Encoder) Bool(name string, v bool) {
	e.field(tagBool, name)
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Bytes appends a named opaque byte field (length-prefixed).
func (e *Encoder) Bytes(name string, v []byte) {
	e.field(tagBytes, name)
	e.appendLenBytes(v)
}

// Task appends a named DAG task field using the canonical task encoding
// of internal/dag (its own version byte travels inside the field, so a
// dag-layout bump also re-keys every trial that embeds a task).
func (e *Encoder) Task(name string, t *dag.Task) {
	e.field(tagTask, name)
	// Length prefix first: encode into place, then patch the length.
	lenAt := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0)
	e.buf = t.AppendCanonical(e.buf)
	binary.BigEndian.PutUint32(e.buf[lenAt:], uint32(len(e.buf)-lenAt-4))
}

// Fingerprint returns a copy of the encoding so far: the per-Map-call
// half of a trial's identity, shared by all its shards. Hand it to
// runner.Config.Fingerprint; the runner derives per-shard keys with
// TrialKey.
func (e *Encoder) Fingerprint() []byte {
	return append([]byte(nil), e.buf...)
}

// Key hashes the encoding so far into a cache key — for callers whose
// whole input is the fingerprint (no per-shard identity).
func (e *Encoder) Key() Key {
	return Key(sha256.Sum256(e.buf))
}

// TrialKey derives the key of one shard of a sweep: the fingerprint
// closed with the trial tag, the shard index and the shard seed. Index
// and seed are both included — the seed alone already depends on (root,
// index), but a trial function is handed both and may legitimately read
// either, so both belong to the trial's identity.
func TrialKey(fingerprint []byte, index int, seed int64) Key {
	h := sha256.New()
	h.Write(fingerprint)
	var tail [17]byte
	tail[0] = tagTrial
	binary.BigEndian.PutUint64(tail[1:9], uint64(index))
	binary.BigEndian.PutUint64(tail[9:17], uint64(seed))
	h.Write(tail[:])
	var k Key
	h.Sum(k[:0])
	return k
}
