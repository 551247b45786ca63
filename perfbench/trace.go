package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"tlc/internal/ledger"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// span is one timed call the benchmark made into a layer. A session's
// own span, named "session", is identified by its sid; the client and
// ledger-append spans inside it carry that sid as both sid and parent.
// Spans outside any session have parent 0.
type span struct {
	Name   string `json:"name"`
	Parent uint64 `json:"parent,omitempty"`
	SID    uint64 `json:"sid,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced pass: now reads 0 and add records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// now is nanoseconds since the tracer started.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// offset converts a time measured from epoch to the tracer's origin.
func (t *tracer) offset(epoch time.Time) int64 { return int64(epoch.Sub(t.t0)) }

func (t *tracer) add(name string, parent, sid uint64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, SID: sid, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// profile is a CPU profile of the traced pass.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds its self time by package group.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return foldProfile(&p.buf)
}

// foldProfile decodes a gzipped pprof profile just far enough to
// attribute each sample's CPU time to the function at the top of its
// stack (its innermost inlined frame), and returns each group's share.
func foldProfile(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		locFunc = map[uint64]uint64{} // location id -> leaf function id
		samples []pbSample
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4: // location
			return decodeLocation(b, locFunc)
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	for _, g := range cpuGroups {
		shares[g] = 0
	}
	total := 0.0
	for _, s := range samples {
		name := ""
		if fn, ok := locFunc[s.leaf]; ok {
			if i, ok := funcs[fn]; ok && i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
		}
		shares[packageGroup(name)] += float64(s.nanos)
		total += float64(s.nanos)
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares, nil
}

type pbSample struct {
	leaf  uint64
	nanos int64
}

// decodeSample reads a Sample: location ids (leaf first) and values
// [sample count, CPU nanoseconds].
func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	var locs, vals []uint64
	err := pbFields(b, func(f int, v uint64, packed []byte) error {
		var dst *[]uint64
		switch f {
		case 1:
			dst = &locs
		case 2:
			dst = &vals
		default:
			return nil
		}
		if packed == nil {
			*dst = append(*dst, v)
			return nil
		}
		for len(packed) > 0 {
			x, n := pbVarint(packed)
			if n <= 0 {
				return errors.New("bad packed varint")
			}
			*dst = append(*dst, x)
			packed = packed[n:]
		}
		return nil
	})
	if len(locs) > 0 {
		s.leaf = locs[0]
	}
	if len(vals) > 1 {
		s.nanos = int64(vals[1])
	}
	return s, err
}

// decodeLocation maps a Location's id to the function of its first Line,
// the innermost of the frames inlined at that address.
func decodeLocation(b []byte, locFunc map[uint64]uint64) error {
	var id, fn uint64
	first := true
	err := pbFields(b, func(f int, v uint64, sub []byte) error {
		switch f {
		case 1:
			id = v
		case 4:
			if !first {
				return nil
			}
			first = false
			return pbFields(sub, func(lf int, lv uint64, _ []byte) error {
				if lf == 1 {
					fn = lv
				}
				return nil
			})
		}
		return nil
	})
	locFunc[id] = fn
	return err
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either a varint value or a length-delimited body.
func pbFields(b []byte, fn func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// packageGroup folds a fully qualified function name into a cpuGroups
// entry.
func packageGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "tlc/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, g := range cpuGroups {
			if g == pkg {
				return g
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "crypto/"), strings.HasPrefix(fn, "math/big."):
		return "crypto"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "internal/syscall/"), strings.HasPrefix(fn, "net."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// primitiveRounds is how many times the primitive table times each
// primitive; it reports medians.
const primitiveRounds = 200

// primitiveTable times the PoC primitives and a ledger append at
// SyncEvery 1 and 16 in isolation, so each stage's cost in the traced
// pass can be set against the primitive it calls.
func primitiveTable(out *outcome, dir string) error {
	fx, err := newFixture()
	if err != nil {
		return err
	}
	nonce := sim.NewRNG(99).Fork("primitive-nonce")
	v := poc.NewVerifier(&fx.edge.PublicKey, &fx.op.PublicKey)
	var cdrUS, cdaUS, pocUS, verUS []float64
	var proof []byte
	us := func(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e3 }
	for i := 0; i < primitiveRounds; i++ {
		t := time.Now()
		cdr, err := poc.BuildCDR(fx.plan, poc.RoleEdge, 0, uint64(fx.view.Sent), nonce, fx.edge)
		if err != nil {
			return err
		}
		cdrUS = append(cdrUS, us(t))
		t = time.Now()
		cda, err := poc.BuildCDA(fx.plan, poc.RoleOperator, 0, uint64(fx.view.Received), cdr, nonce, fx.op)
		if err != nil {
			return err
		}
		cdaUS = append(cdaUS, us(t))
		t = time.Now()
		p, err := poc.BuildPoC(cda, fx.edge)
		if err != nil {
			return err
		}
		pocUS = append(pocUS, us(t))
		t = time.Now()
		if err := v.Verify(p, fx.plan); err != nil {
			out.problem("primitive table: a fresh PoC failed Algorithm 2: %v", err)
		}
		verUS = append(verUS, us(t))
		if p.X != settledX {
			out.problem("primitive table: PoC X = %d, want %d", p.X, settledX)
		}
		if proof == nil {
			if proof, err = p.MarshalBinary(); err != nil {
				return err
			}
		}
	}
	out.values["poc.build_cdr_us"] = median(cdrUS)
	out.values["poc.build_cda_us"] = median(cdaUS)
	out.values["poc.build_poc_us"] = median(pocUS)
	out.values["poc.verify_us"] = median(verUS)

	for _, syncEvery := range []int{1, 16} {
		ldir := filepath.Join(dir, fmt.Sprintf("primitive-ledger-%d", syncEvery))
		led, err := ledger.Open(ledger.Options{Dir: ldir, FS: ledger.DirFS{}, SyncEvery: syncEvery}, nil)
		if err != nil {
			return err
		}
		var appendUS []float64
		for i := 0; i < primitiveRounds; i++ {
			rec := ledger.Record{Kind: ledger.KindPoC, Cycle: 1, Subscriber: fx.subscriber, X: settledX, Rounds: 1, Proof: proof}
			t := time.Now()
			if err := led.Append(&rec); err != nil {
				_ = led.Close()
				return err
			}
			appendUS = append(appendUS, us(t))
		}
		if err := led.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(ldir); err != nil {
			return err
		}
		out.values[fmt.Sprintf("prim.ledger_append_sync%d_us", syncEvery)] = median(appendUS)
	}
	out.note("primitive table (median of %d): BuildCDR %.1f us, BuildCDA %.1f us, BuildPoC %.1f us, Verify %.1f us, Append sync1 %.1f us, sync16 %.1f us",
		primitiveRounds, out.values["poc.build_cdr_us"], out.values["poc.build_cda_us"], out.values["poc.build_poc_us"],
		out.values["poc.verify_us"], out.values["prim.ledger_append_sync1_us"], out.values["prim.ledger_append_sync16_us"])
	return nil
}
