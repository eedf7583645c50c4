package sim

// VTScheduler assigns virtual-time completion stamps to operations
// fanned out across parallel lanes (flash planes, dies, channels). It
// is the timing half of the deterministic concurrent datapath: every
// operation is stamped BEFORE any worker goroutine runs, in one
// canonical pass over the batch, so the stamps — and everything derived
// from them (device busy time, latency histograms, completion order) —
// are a pure function of the submitted batch, never of goroutine
// scheduling or GOMAXPROCS.
//
// The model is the classic per-lane FIFO queue: an operation submitted
// at time s to lane l starts at max(s, lane l's busy-until), runs for
// its modelled duration, and pushes the lane's busy-until to its
// completion time. Lanes drain independently — that is exactly the
// plane-parallelism the wall-clock workers exploit — but the stamps are
// computed serially in canonical submission order, so they do not
// depend on which worker physically executes which plane.
type VTScheduler struct {
	lanes []Time // per-lane busy-until (virtual time)
}

// NewVTScheduler returns a scheduler over n independent lanes.
func NewVTScheduler(n int) *VTScheduler {
	if n < 1 {
		n = 1
	}
	return &VTScheduler{lanes: make([]Time, n)}
}

// Reset clears every lane's busy-until back to t (a new batch epoch).
func (s *VTScheduler) Reset(t Time) {
	for i := range s.lanes {
		s.lanes[i] = t
	}
}

// Dispatch stamps one operation: submitted at submit, bound to lane,
// running for dur. It returns the virtual start and completion times
// and advances the lane. Dispatch MUST be called in canonical
// submission order (ascending global sequence) for stamps to be
// deterministic; that is the caller's half of the contract.
func (s *VTScheduler) Dispatch(lane int, submit, dur Time) (start, done Time) {
	l := lane % len(s.lanes)
	start = submit
	if s.lanes[l] > start {
		start = s.lanes[l]
	}
	done = start + dur
	s.lanes[l] = done
	return start, done
}

// Horizon returns the latest busy-until across lanes — the batch
// makespan boundary.
func (s *VTScheduler) Horizon() Time {
	var h Time
	for _, t := range s.lanes {
		if t > h {
			h = t
		}
	}
	return h
}

// Completion is one operation's completion record. Records produced by
// parallel workers in arbitrary wall-clock order are merged back into
// canonical order with SortCompletions.
type Completion struct {
	// Done is the virtual completion stamp from Dispatch.
	Done Time
	// Queue is the submission queue the op was dealt to. Queues are
	// dealt contiguous chunks of the sequence space (see DealQueue), so
	// ordering by (Done, Queue, Seq) is invariant under the queue count.
	Queue int
	// Seq is the op's global submission sequence number, assigned
	// before dispatch — the same pre-dispatch trick the experiment
	// runner uses for seeds (SplitSeeds): order is fixed before any
	// goroutine runs.
	Seq uint64
}

// Less is the canonical completion order: virtual completion time,
// then queue id, then global submission sequence. Because queue
// assignment is chunked (monotone in Seq), the (Queue, Seq) tiebreak
// orders exactly like Seq alone — which is what makes the merged order
// byte-identical across queue counts as well as across GOMAXPROCS.
func (c Completion) Less(o Completion) bool {
	if c.Done != o.Done {
		return c.Done < o.Done
	}
	if c.Queue != o.Queue {
		return c.Queue < o.Queue
	}
	return c.Seq < o.Seq
}

// SortCompletions merges completion records into canonical
// (virtual-time, queue-id, seq) order in place. Insertion sort, not
// sort.Slice: callers dispatch in Seq order so the records arrive
// nearly sorted (only cross-lane Done inversions remain), and the
// per-batch hot path must not allocate — sort.Slice's closure and
// reflect-based swapper do.
func SortCompletions(cs []Completion) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && c.Less(cs[j]) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}

// DealQueue maps a batch-local index to its submission queue by
// contiguous chunking: queue q owns indices [q*n/queues, (q+1)*n/queues).
// Chunked (rather than round-robin) dealing keeps queue id monotone in
// sequence number, which the canonical completion order relies on, and
// gives each encode worker a cache-friendly contiguous span.
func DealQueue(i, n, queues int) int {
	if queues <= 1 || n <= 0 {
		return 0
	}
	if queues > n {
		queues = n
	}
	// Inverse of the chunk boundaries: the unique q with
	// q*n/queues <= i < (q+1)*n/queues.
	q := i * queues / n
	for q > 0 && i < q*n/queues {
		q--
	}
	for i >= (q+1)*n/queues {
		q++
	}
	return q
}
