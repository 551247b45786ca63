// Package ledger is the durable charging store: an append-only
// segment log for CDRs and settled proofs-of-charge that survives a
// process crash. Records are CRC32C-framed and length-prefixed; fsync
// is group-committed (one sync covers a batch of appends); segments
// rotate at a size threshold; and replay on startup truncates the log
// at the first torn record, so every recovered record is either fully
// present or fully absent — never corrupt (the read-only Replay
// reports that damage as ErrCorrupt instead). A frame that verifies
// but does not decode was not torn by a crash, so Open refuses it
// rather than cut away the intact records behind it.
//
// The paper's premise is that billable state must survive adversity
// at the cellular edge; this package is what turns the simulator's
// "LostRecords counter" into an actual recovery path (the OFCS
// replays its loss window out of the log) and what gives the live
// tlcd operator an audit trail ("every PoC for subscriber X in cycle
// Y") that outlives any single process.
//
// The package reads no clocks and draws no randomness: durability
// policy is count-based (sync every N appends), which keeps it legal
// inside the deterministic simulation (tlcvet simtime) and makes
// every torture run replayable.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Kind discriminates record payloads.
type Kind uint8

const (
	// KindCDR is one charging data record: a subscriber's metered
	// usage delta, stamped with its arrival time.
	KindCDR Kind = 1
	// KindPoC is one settled proof-of-charge: the negotiated volume
	// plus the full signed proof bytes (poc.PoC binary encoding).
	KindPoC Kind = 2

	// Kinds 3, 4 and 5 are retired: a cycle-settled mark, a
	// compaction snapshot and a roaming chain, none of which any
	// binary wrote. They are never reused, so a frame of one of them
	// stays undecodable: Replay reports it as ErrCorrupt and Open
	// refuses the log rather than cut it there.
)

// Limits keeping a corrupt length prefix from driving allocation.
const (
	// MaxRecordBytes bounds one record's framed payload.
	MaxRecordBytes = 1 << 20
	// MaxSubscriberLen bounds the subscriber identifier.
	MaxSubscriberLen = 256
)

// Record is one ledger entry. Kind selects which fields are
// meaningful; the codec is canonical (decode∘encode is the identity
// on valid payloads), which the fuzz target exploits to prove no
// corrupt record ever surfaces from replay.
type Record struct {
	Kind       Kind
	Cycle      uint64
	At         int64  // arrival stamp in ns (KindCDR); 0 otherwise
	Subscriber string // IMSI or peer-key fingerprint

	// KindCDR fields.
	Seq        uint32
	ChargingID uint32
	TimeUsage  int64
	UL, DL     uint64

	// KindPoC fields.
	X      uint64
	Rounds uint32
	Proof  []byte
}

// castagnoli is the CRC32C table (the polynomial storage systems use
// for record framing; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame layout, little-endian:
//
//	[len u32][crc32c u32][payload len bytes]
//
// crc covers the payload only. A record is valid iff len is in
// (0, MaxRecordBytes], the payload is fully present and the CRC
// matches; anything else is a torn record and truncates replay.
const frameHeader = 8

var (
	errShortFrame = errors.New("ledger: torn frame header")
	errBadLength  = errors.New("ledger: frame length out of range")
	errShortBody  = errors.New("ledger: torn frame body")
	errBadCRC     = errors.New("ledger: frame CRC mismatch")
)

// appendFrame appends one framed payload to dst and returns the
// extended slice. The payload must already be length-checked.
//
//tlcvet:hotpath
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return dst
}

// appendU32 / appendU64 are the integer field encoders, kept in the
// amortized self-append form the hotalloc check certifies.
//
//tlcvet:hotpath
func appendU32(dst []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	dst = append(dst, tmp[:]...)
	return dst
}

//tlcvet:hotpath
func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	dst = append(dst, tmp[:]...)
	return dst
}

// appendRecord appends the canonical payload encoding of rec to dst.
//
//tlcvet:hotpath
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, byte(rec.Kind))
	dst = appendU64(dst, rec.Cycle)
	dst = appendU64(dst, uint64(rec.At))
	dst = appendU32(dst, uint32(len(rec.Subscriber)))
	dst = append(dst, rec.Subscriber...)
	switch rec.Kind {
	case KindCDR:
		dst = appendU32(dst, rec.Seq)
		dst = appendU32(dst, rec.ChargingID)
		dst = appendU64(dst, uint64(rec.TimeUsage))
		dst = appendU64(dst, rec.UL)
		dst = appendU64(dst, rec.DL)
	case KindPoC:
		dst = appendU64(dst, rec.X)
		dst = appendU32(dst, rec.Rounds)
		dst = appendU32(dst, uint32(len(rec.Proof)))
		dst = append(dst, rec.Proof...)
	}
	return dst
}

// recordSize returns the encoded payload size of rec, for the
// pre-append length check and rotation decision.
func recordSize(rec *Record) int {
	n := 1 + 8 + 8 + 4 + len(rec.Subscriber)
	switch rec.Kind {
	case KindCDR:
		n += 4 + 4 + 8 + 8 + 8
	case KindPoC:
		n += 8 + 4 + 4 + len(rec.Proof)
	}
	return n
}

// decodeRecord decodes one canonical payload. Every read is
// bounds-checked: arbitrary input returns an error, never panics, and
// a success decodes to a record that re-encodes to the same bytes.
func decodeRecord(payload []byte, rec *Record) error {
	d := decoder{b: payload}
	kind, err := d.byte()
	if err != nil {
		return err
	}
	*rec = Record{Kind: Kind(kind)}
	if rec.Cycle, err = d.u64(); err != nil {
		return err
	}
	at, err := d.u64()
	if err != nil {
		return err
	}
	rec.At = int64(at)
	if rec.Subscriber, err = d.str(MaxSubscriberLen); err != nil {
		return err
	}
	switch rec.Kind {
	case KindCDR:
		if rec.Seq, err = d.u32(); err != nil {
			return err
		}
		if rec.ChargingID, err = d.u32(); err != nil {
			return err
		}
		tu, err := d.u64()
		if err != nil {
			return err
		}
		rec.TimeUsage = int64(tu)
		if rec.UL, err = d.u64(); err != nil {
			return err
		}
		if rec.DL, err = d.u64(); err != nil {
			return err
		}
	case KindPoC:
		if rec.X, err = d.u64(); err != nil {
			return err
		}
		if rec.Rounds, err = d.u32(); err != nil {
			return err
		}
		n, err := d.u32()
		if err != nil {
			return err
		}
		if int(n) > len(d.b)-d.off {
			return errTruncatedPayload
		}
		rec.Proof = append([]byte(nil), d.b[d.off:d.off+int(n)]...)
		d.off += int(n)
	default:
		return fmt.Errorf("ledger: unknown record kind %d", kind)
	}
	if d.off != len(d.b) {
		return errors.New("ledger: trailing bytes after record")
	}
	return nil
}

var errTruncatedPayload = errors.New("ledger: truncated record payload")

// decoder is a bounds-checked cursor over one payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.b) {
		return 0, errTruncatedPayload
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if len(d.b)-d.off < 4 {
		return 0, errTruncatedPayload
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if len(d.b)-d.off < 8 {
		return 0, errTruncatedPayload
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str(max int) (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if int(n) > max || int(n) > len(d.b)-d.off {
		return "", errTruncatedPayload
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}
