package roaming

// PartyID indexes the four balance sheets of one roaming settlement.
type PartyID int

const (
	// Subscriber is the roaming end user (billed by its home operator).
	Subscriber PartyID = iota
	// Home is the subscriber's home operator.
	Home
	// Visited is the operator whose network the subscriber roams in.
	Visited
	// Vendor is the edge application vendor.
	Vendor
	numParties
)

// Transfer is one directed payment of the settlement pass, in the
// ledger's integer volume units (bytes of charged traffic).
type Transfer struct {
	From, To PartyID
	Amount   uint64
}

// Settlement is the netted result of one cycle: the transfer list and
// the per-party balance deltas it implies. Built from verified chain
// volumes only — a chain the home operator rejected settles nothing.
type Settlement struct {
	Transfers []Transfer
	Balances  [numParties]int64
}

// Settle nets one verified cycle. The money follows the chain
// backwards: the subscriber pays its home operator the billed X2, the
// home operator passes X2 on to the visited operator that carried the
// traffic, and the visited operator pays the vendor the X1 their
// segment settled at. The home operator nets to zero by construction
// (billing passthrough), the visited operator keeps the spread
// X2 − X1 (its carriage margin — negative when the loss was its own),
// and the vendor collects exactly its settled revenue.
func Settle(x1, x2 uint64) Settlement {
	s := Settlement{
		Transfers: []Transfer{
			{From: Subscriber, To: Home, Amount: x2},
			{From: Home, To: Visited, Amount: x2},
			{From: Visited, To: Vendor, Amount: x1},
		},
	}
	for _, tr := range s.Transfers {
		s.Balances[tr.From] -= int64(tr.Amount)
		s.Balances[tr.To] += int64(tr.Amount)
	}
	return s
}

// ZeroSum reports whether the settlement's balances net to exactly
// zero — every transfer has two sides, so any violation means the
// balances were tampered after construction.
func (s Settlement) ZeroSum() bool {
	var sum int64
	for _, b := range s.Balances {
		sum += b
	}
	return sum == 0
}

// Book accumulates settlements across cycles, one running balance per
// party.
type Book struct {
	Cycles   int
	Balances [numParties]int64
}

// Add folds one cycle's settlement into the running balances.
func (b *Book) Add(s Settlement) {
	b.Cycles++
	for i, d := range s.Balances {
		b.Balances[i] += d
	}
}

// ZeroSum reports whether the running balances net to exactly zero.
func (b *Book) ZeroSum() bool {
	var sum int64
	for _, bal := range b.Balances {
		sum += bal
	}
	return sum == 0
}
