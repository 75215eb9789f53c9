package memsim

// reqKind distinguishes reads from writes; the companion traffic some
// schemes add takes the kind of the transfer it is.
type reqKind int

const (
	reqRead reqKind = iota
	reqWrite
)

// request is one memory transaction from the controller's point of view.
type request struct {
	kind reqKind
	// rank is the first rank of the (possibly ganged) access, bank/row/col
	// the open-page target; the queue holding it names the channel gang.
	rank, bank, row, col int
	// robSlot links a read back to the issuing core's ROB entry.
	robSlot *robEntry
	// arrive is the enqueue cycle (FCFS tiebreak and latency stats).
	arrive int64
}

// completion is a demand read in flight to its ROB entry.
type completion struct {
	entry  *robEntry
	arrive int64 // the request's enqueue cycle, for latency stats
}

// queue is a simple FIFO with removal, small enough that linear scans are
// faster than anything clever.
type queue struct {
	items []*request
}

func (q *queue) push(r *request)   { q.items = append(q.items, r) }
func (q *queue) len() int          { return len(q.items) }
func (q *queue) at(i int) *request { return q.items[i] }

func (q *queue) removeAt(i int) *request {
	r := q.items[i]
	copy(q.items[i:], q.items[i+1:])
	q.items = q.items[:len(q.items)-1]
	return r
}
