package sim

import "fmt"

// Hold reserves the key (at, seq) of a completion that needs no heap
// entry unless something comes to depend on it. A link whose
// transmitter has nothing queued settles the transmission at its start
// and holds its completion: if a packet queues behind it before the
// key, the link claims the hold, and the completion fires as an
// ordinary event at exactly the reserved key; otherwise the clock
// passes the key without firing anything.
//
// A held completion counts in Fired once the clock has passed its key,
// as its event would have fired by then; Held reports how many of
// Fired's events these are. It is not traced. A Hold belongs to one
// scheduler and reserves one key at a time; the zero Hold is ready to
// use.
type Hold struct {
	at  Time
	seq uint64
	// pending is set while the reserved key may still be unpassed: from
	// Hold until the hold is claimed or reserved again.
	pending    bool
	registered bool
}

// Hold reserves the key (t, seq) for h with the scheduler's next seq,
// as AtPooled would for an event at t, without a heap entry. h must
// not hold an unpassed key.
//
//tlcvet:hotpath every link transmission with nothing queued behind it holds its completion here
func (s *Scheduler) Hold(h *Hold, t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: hold at %v before now %v", t, s.now))
	}
	if !h.registered {
		h.registered = true
		s.holds = append(s.holds, h)
	}
	h.at, h.seq, h.pending = t, s.seq, true
	s.seq++
	s.held++
}

// Passed reports whether the clock has passed h's key: the event it
// stands for would have fired before the one running now, or, between
// events, before the point the last Step or RunUntil left the clock at.
func (s *Scheduler) Passed(h *Hold) bool {
	return h.at < s.now || (h.at == s.now && h.seq < s.cur)
}

// Claim schedules fn at h's reserved key, for a hold the clock has not
// passed: the completion becomes an ordinary event, which Fired counts
// when it fires and Held does not.
func (s *Scheduler) Claim(h *Hold, fn func()) {
	if !h.pending || s.Passed(h) {
		panic(fmt.Sprintf("sim: claim of a hold at %v that is not pending", h.at))
	}
	s.push(heapEntry{at: h.at, seq: h.seq, fn: fn})
	h.pending = false
	s.held--
}

// Held returns the number of held completions whose key the clock has
// passed without anything claiming them. They are part of Fired; the
// heap fired Fired() - Held() events.
func (s *Scheduler) Held() uint64 {
	n := s.held
	for _, h := range s.holds {
		if h.pending && !s.Passed(h) {
			n--
		}
	}
	return n
}

// passHolds advances the clock past every pending hold, as the heap
// would have once their events fired; Run calls it when the heap is
// empty.
func (s *Scheduler) passHolds() {
	for _, h := range s.holds {
		if h.pending && h.at > s.now {
			s.now = h.at
		}
	}
	s.cur = s.seq
}
