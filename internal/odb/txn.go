package odb

import (
	"sync"

	"odbscale/internal/xrand"
)

// TxnType enumerates the five ODB transaction types.
type TxnType int

// The ODB transaction mix.
const (
	NewOrder TxnType = iota
	Payment
	OrderStatus
	Delivery
	StockLevel
	numTxnTypes
)

// NumTxnTypes is the size of the TxnType enum, for per-type tables.
const NumTxnTypes = int(numTxnTypes)

var txnNames = [...]string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}

func (t TxnType) String() string { return txnNames[t] }

// MixWeights is the standard transaction mix (percent).
var MixWeights = [numTxnTypes]int{45, 43, 4, 4, 4}

// Phase tags where in the engine an operation's work happens — the
// frames of the cycle-attribution profiler. The first seven are the
// storage-engine phases (statement setup, index descent, buffer-cache
// access, lock-manager traffic, redo generation and commit, memtable
// probes and appends, background compaction); the last three are the
// OS-side phases charged by the system layer through the scheduler
// callbacks (context switching, kernel syscall paths, idle). The
// memtable and compact phases are empty under the B-tree engine and
// carry the LSM engine's in-memory write path and background merges.
type Phase uint8

// Engine and OS phases.
const (
	PhaseParse Phase = iota
	PhaseBTree
	PhaseBuffer
	PhaseLock
	PhaseLogCommit
	PhaseMemtable
	PhaseCompact
	PhaseSched
	PhaseSyscall
	PhaseIdle
	NumPhases
)

var phaseNames = [NumPhases]string{
	"parse", "btree", "buffer", "lock", "logcommit", "memtable", "compact", "sched", "syscall", "idle",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "phase(?)"
}

// PhaseFromString inverts String; unknown names report false.
func PhaseFromString(s string) (Phase, bool) {
	for i, name := range phaseNames {
		if name == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// OpKind enumerates operations in a transaction's execution program.
type OpKind uint8

// Operation kinds.
const (
	OpCompute  OpKind = iota // burn Instr user-mode instructions
	OpRead                   // read Block (buffer cache get)
	OpWrite                  // read-modify-write Block (get + mark dirty)
	OpLock                   // acquire Res, may block
	OpUnlock                 // release Res
	OpLog                    // emit Bytes of redo to the log writer
	OpCommit                 // transaction end: force the log, release CPU
	OpMemWrite               // append Bytes to the engine's in-memory write buffer (LSM memtable)
)

// Op is one step of a transaction program. Instr user instructions of
// compute are charged before the op's action for every kind, modelling
// the code executed between block touches.
type Op struct {
	Kind  OpKind
	Phase Phase // engine phase the op (and its lead-in compute) belongs to
	Block BlockID
	Res   LockID
	Instr uint64
	Bytes int
	// Row-level effect for the functional (payload) engine: add Delta to
	// the counter row (Table, Ord). Zero Delta means no logical effect.
	Table TableID
	Ord   uint64
	Delta int64
}

// Txn is a generated transaction instance.
type Txn struct {
	Type     TxnType
	Home     int // home warehouse (zero-based)
	District int
	Ops      []Op
	UserIPX  uint64 // total user instructions across ops
	LogBytes int
}

// instruction budgets per transaction type (user space). These are the
// flat per-transaction path lengths of the paper's Figure 5 — they do not
// depend on the warehouse count. The mix-weighted mean is ~1.06 M.
var instrBudget = [numTxnTypes]uint64{
	NewOrder:    1_200_000,
	Payment:     850_000,
	OrderStatus: 600_000,
	Delivery:    1_900_000,
	StockLevel:  1_400_000,
}

// logBytesFor gives mean redo bytes per type; the mix average is ~6 KB,
// the paper's reported log volume per transaction.
var logBytesFor = [numTxnTypes]int{
	NewOrder:    9_500,
	Payment:     2_600,
	OrderStatus: 0,
	Delivery:    7_000,
	StockLevel:  0,
}

// Generator produces transaction programs for a fixed layout. Each
// transaction picks a home warehouse uniformly (the workload exercises
// the whole database, as the paper's ODB client population does); a
// small fraction of NewOrder stock updates and Payment customers are
// remote, producing genuine cross-warehouse sharing.
type Generator struct {
	L       *Layout
	rng     *xrand.Rand
	planner AccessPlanner // engine-owned access planner; defaults to BTreePlanner

	item        *xrand.Zipf // item popularity
	nextOrderID []int       // per district, cycling append cursor

	// StockLevelScan bounds the stock-level item scan (the full TPC-C
	// examines 200; the default trims it to keep op streams compact).
	StockLevelScan int

	// free holds recycled transactions per type, so a recycled Ops slice
	// is reused by the type that sized it; opsCap is each type's largest
	// Ops capacity yet, which sizes a pool miss.
	free   [numTxnTypes][]*Txn
	opsCap [numTxnTypes]int
	seen   []BlockID // duplicate-block scratch for scan loops
	ob     opBuilder // builder scratch, rebound per Next so no builder escapes
}

// itemZipf is the item-popularity Zipf's table, built on first use and
// shared read-only by every generator in the process: it depends only on
// the skew and Items, both constants. It draws from no stream of its own.
var itemZipf = sync.OnceValue(func() *xrand.Zipf {
	return xrand.NewZipf(nil, 1.45, Items)
})

// NewGenerator builds a generator over layout l with its own RNG stream.
// Transactions plan their accesses through the default B-tree planner
// until SetPlanner installs an engine-specific one.
func NewGenerator(l *Layout, rng *xrand.Rand) *Generator {
	return &Generator{
		L:              l,
		rng:            rng,
		planner:        NewBTreePlanner(l),
		item:           itemZipf().WithRand(rng.Split(101)),
		nextOrderID:    make([]int, l.Warehouses*DistrictsPerWarehouse),
		StockLevelScan: 60,
	}
}

// SetPlanner installs the storage engine's access planner. A nil planner
// keeps the current one. The generator's own RNG stream is untouched, so
// engines whose planners draw no randomness (B-tree) generate op streams
// bit-identical to the pre-seam generator.
func (g *Generator) SetPlanner(p AccessPlanner) {
	if p != nil {
		g.planner = p
	}
}

// pickType draws a transaction type from the mix.
func (g *Generator) pickType() TxnType {
	v := g.rng.Intn(100)
	acc := 0
	for t := NewOrder; t < numTxnTypes; t++ {
		acc += MixWeights[t]
		if v < acc {
			return t
		}
	}
	return NewOrder
}

// Recycle returns a finished transaction to its type's pool so the next
// Next of that type reuses its op slice. The caller must not retain txn
// (or any Op pointer into it) afterwards.
func (g *Generator) Recycle(txn *Txn) {
	if txn == nil {
		return
	}
	g.free[txn.Type] = append(g.free[txn.Type], txn)
}

// Next generates the next transaction for the given client.
func (g *Generator) Next(client int) *Txn {
	w := g.rng.Intn(g.L.Warehouses)
	_ = client
	d := g.rng.Intn(DistrictsPerWarehouse)
	t := g.pickType()
	var txn *Txn
	if free := g.free[t]; len(free) > 0 {
		txn = free[len(free)-1]
		g.free[t] = free[:len(free)-1]
		*txn = Txn{Type: t, Home: w, District: d, Ops: txn.Ops[:0]}
	} else {
		//lint:ignore hotalloc pool-miss fallback: Recycle warms the type's free list, steady state reuses transactions
		txn = &Txn{Type: t, Home: w, District: d, Ops: make([]Op, 0, g.opsCap[t])}
	}
	g.ob = opBuilder{g: g, txn: txn, budget: g.jitter(instrBudget[t])}
	b := &g.ob
	switch t {
	case NewOrder:
		g.newOrder(b, w, d)
	case Payment:
		g.payment(b, w, d)
	case OrderStatus:
		g.orderStatus(b, w, d)
	case Delivery:
		g.delivery(b, w)
	case StockLevel:
		g.stockLevel(b, w, d)
	}
	b.finish()
	g.opsCap[t] = max(g.opsCap[t], cap(txn.Ops))
	return txn
}

// jitter spreads a budget ±15% so transactions are not identical.
func (g *Generator) jitter(n uint64) uint64 {
	f := 0.85 + g.rng.Float64()*0.30
	return uint64(float64(n) * f)
}

// opBuilder accumulates ops and spreads the instruction budget across
// them. Ops accumulate directly into txn.Ops so a recycled transaction's
// capacity is reused.
type opBuilder struct {
	g      *Generator
	txn    *Txn
	budget uint64
}

func (b *opBuilder) add(op Op) { b.txn.Ops = append(b.txn.Ops, op) }

func (b *opBuilder) read(t TableID, ord uint64) {
	b.txn.Ops = b.g.planner.ReadRow(b.txn.Ops, t, ord)
}
func (b *opBuilder) write(t TableID, ord uint64) {
	b.txn.Ops = b.g.planner.WriteRow(b.txn.Ops, t, ord, 0)
}

// writeRow is a write carrying a logical row effect for the payload engine.
func (b *opBuilder) writeRow(t TableID, ord uint64, delta int64) {
	b.txn.Ops = b.g.planner.WriteRow(b.txn.Ops, t, ord, delta)
}

func (b *opBuilder) lock(res LockID)   { b.add(Op{Kind: OpLock, Phase: PhaseLock, Res: res}) }
func (b *opBuilder) unlock(res LockID) { b.add(Op{Kind: OpUnlock, Phase: PhaseLock, Res: res}) }

// indexPath plans a secondary-index probe for ordinal ord.
func (b *opBuilder) indexPath(idx TableID, ord uint64) {
	b.txn.Ops = b.g.planner.IndexLookup(b.txn.Ops, idx, ord)
}

// finish distributes the instruction budget over the ops and appends the
// log write and commit.
func (b *opBuilder) finish() {
	logBytes := 0
	if base := logBytesFor[b.txn.Type]; base > 0 {
		logBytes = int(b.g.jitter(uint64(base)))
		b.add(Op{Kind: OpLog, Phase: PhaseLogCommit, Bytes: logBytes})
	}
	b.add(Op{Kind: OpCommit, Phase: PhaseLogCommit})
	ops := b.txn.Ops
	n := uint64(len(ops))
	per := b.budget / n
	rem := b.budget - per*n
	for i := range ops {
		ops[i].Instr = per
	}
	ops[len(ops)-1].Instr += rem
	b.txn.UserIPX = b.budget
	b.txn.LogBytes = logBytes
}

// containsBlock reports whether bl is already in the (tiny, <=20 entry)
// dedup scratch; a linear scan beats a map at this size and allocates
// nothing.
func containsBlock(s []BlockID, bl BlockID) bool {
	for _, v := range s {
		if v == bl {
			return true
		}
	}
	return false
}

// --- transaction bodies ---

func (g *Generator) newOrder(b *opBuilder, w, d int) {
	l := g.L
	b.read(TableWarehouse, uint64(w))

	dres := LockID{LockDistrict, DistrictOrdinal(w, d)}
	b.lock(dres)
	b.write(TableDistrict, DistrictOrdinal(w, d))

	c := g.rng.NURand(1023, 0, CustomersPerDistrict-1, 259)
	cOrd := CustomerOrdinal(w, d, c)
	b.indexPath(IndexCustomer, cOrd)
	b.read(TableCustomer, cOrd)

	nItems := g.rng.UniformInt(5, 15)
	for i := 0; i < nItems; i++ {
		item := int(g.item.Next())
		b.indexPath(IndexItem, uint64(item))
		b.read(TableItem, uint64(item))
		sw := w
		if l.Warehouses > 1 && g.rng.Bernoulli(0.01) {
			for sw == w {
				sw = g.rng.Intn(l.Warehouses)
			}
		}
		sOrd := StockOrdinal(sw, item)
		b.indexPath(IndexStock, sOrd)
		b.write(TableStock, sOrd)
	}

	// Insert order, new-order and order lines in the district's append
	// region (cycling within the fixed extent).
	perDistrict := OrdersPerWarehouse / DistrictsPerWarehouse
	dOrd := DistrictOrdinal(w, d)
	oid := g.nextOrderID[dOrd]
	g.nextOrderID[dOrd] = (oid + 1) % perDistrict
	oOrd := OrderOrdinal(w, d, oid)
	b.write(TableOrder, oOrd)
	b.indexPath(IndexOrder, oOrd)
	noHeap := l.Heap(TableNewOrder)
	b.write(TableNewOrder, oOrd%noHeap.Rows)
	// Dedup order-line touches by heap block so the B-tree engine writes
	// each block once; the representative ordinal stands in for the run.
	olHeap := l.Heap(TableOrderLine)
	olBase := oOrd * OrderLinesPerOrder
	seen := g.seen[:0]
	for i := 0; i < nItems; i++ {
		ord := (olBase + uint64(i)) % olHeap.Rows
		bl := olHeap.Block(ord)
		if !containsBlock(seen, bl) {
			seen = append(seen, bl)
			b.write(TableOrderLine, ord)
		}
	}
	g.seen = seen
	b.unlock(dres)
}

func (g *Generator) payment(b *opBuilder, w, d int) {
	l := g.L
	amount := int64(g.rng.UniformInt(100, 500000)) // cents

	wres := LockID{LockWarehouse, uint64(w)}
	b.lock(wres)
	b.writeRow(TableWarehouse, uint64(w), amount)

	dres := LockID{LockDistrict, DistrictOrdinal(w, d)}
	b.lock(dres)
	b.writeRow(TableDistrict, DistrictOrdinal(w, d), amount)

	// 15% of payments are for a customer of a remote warehouse.
	cw, cd := w, d
	if l.Warehouses > 1 && g.rng.Bernoulli(0.15) {
		for cw == w {
			cw = g.rng.Intn(l.Warehouses)
		}
		cd = g.rng.Intn(DistrictsPerWarehouse)
	}
	c := g.rng.NURand(1023, 0, CustomersPerDistrict-1, 259)
	cOrd := CustomerOrdinal(cw, cd, c)
	b.indexPath(IndexCustomer, cOrd)
	b.writeRow(TableCustomer, cOrd, -amount)

	hHeap := l.Heap(TableHistory)
	b.write(TableHistory, cOrd%hHeap.Rows)

	b.unlock(dres)
	b.unlock(wres)
}

func (g *Generator) orderStatus(b *opBuilder, w, d int) {
	l := g.L
	c := g.rng.NURand(1023, 0, CustomersPerDistrict-1, 259)
	cOrd := CustomerOrdinal(w, d, c)
	b.indexPath(IndexCustomer, cOrd)
	b.read(TableCustomer, cOrd)

	// OrderStatus reads the customer's most recent order, so the touched
	// order blocks stay within the hot append region.
	perDistrict := OrdersPerWarehouse / DistrictsPerWarehouse
	dOrd := DistrictOrdinal(w, d)
	recent := g.nextOrderID[dOrd]
	oid := recent - 1 - g.rng.Intn(20)
	if oid < 0 {
		oid = 0
	}
	oOrd := OrderOrdinal(w, d, oid%perDistrict)
	b.indexPath(IndexOrder, oOrd)
	b.read(TableOrder, oOrd)
	olHeap := l.Heap(TableOrderLine)
	b.read(TableOrderLine, (oOrd*OrderLinesPerOrder)%olHeap.Rows)
}

func (g *Generator) delivery(b *opBuilder, w int) {
	l := g.L
	perDistrict := OrdersPerWarehouse / DistrictsPerWarehouse
	for d := 0; d < DistrictsPerWarehouse; d++ {
		dOrd := DistrictOrdinal(w, d)
		oid := g.nextOrderID[dOrd]
		oOrd := OrderOrdinal(w, d, oid%perDistrict)
		noHeap := l.Heap(TableNewOrder)
		b.write(TableNewOrder, oOrd%noHeap.Rows)
		b.write(TableOrder, oOrd)
		olHeap := l.Heap(TableOrderLine)
		b.write(TableOrderLine, (oOrd*OrderLinesPerOrder)%olHeap.Rows)
		c := g.rng.NURand(1023, 0, CustomersPerDistrict-1, 259)
		cOrd := CustomerOrdinal(w, d, c)
		b.write(TableCustomer, cOrd)
	}
}

func (g *Generator) stockLevel(b *opBuilder, w, d int) {
	l := g.L
	b.read(TableDistrict, DistrictOrdinal(w, d))
	// Scan recent order lines, then probe the stock of the referenced
	// items. Recently ordered items follow the popularity distribution.
	// The scan dedups by heap block; the representative ordinal stands in
	// for the run.
	olHeap := l.Heap(TableOrderLine)
	perDistrict := OrdersPerWarehouse / DistrictsPerWarehouse
	dOrd := DistrictOrdinal(w, d)
	base := OrderOrdinal(w, d, g.nextOrderID[dOrd]%perDistrict) * OrderLinesPerOrder
	seen := g.seen[:0]
	for i := 0; i < 20; i++ {
		ord := (base + uint64(i)) % olHeap.Rows
		bl := olHeap.Block(ord)
		if !containsBlock(seen, bl) {
			seen = append(seen, bl)
			b.read(TableOrderLine, ord)
		}
	}
	g.seen = seen
	for i := 0; i < g.StockLevelScan; i++ {
		item := int(g.item.Next())
		sOrd := StockOrdinal(w, item)
		b.indexPath(IndexStock, sOrd)
		b.read(TableStock, sOrd)
	}
}
