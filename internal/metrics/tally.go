package metrics

import (
	"math/bits"
	"slices"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// cellTally is the grid half of the scoring kernel: fed a dataset one user
// at a time, it bins every record once and keeps, per visited cell, the
// number of distinct users seen there (crowded places, coverage) and, per
// visited cell and hour, the number of distinct users seen then (traffic).
// Consecutive fixes in the same cell — and, when traffic is counted, the
// same hour — touch no table: a stay is hundreds of fixes in one cell.
//
// Cells get small integer ids in first-visit order. A tally built over a
// RawView's cell table (base) reads that table without copying it, so raw
// and protected visits are compared by id; cells outside base get the ids
// after them from a table of the tally's own. Visits — one cell during one
// hour since the Unix epoch, floored so pre-1970 hours are negative — are
// found through a third table keyed by (cell id, hour). Each cell remembers
// the visit it touched last, so returning to a cell within the same hour
// touches no table, and heads a chain of its visits, which hourlyMeans
// walks instead of sorting them. Memory is proportional to the visited
// cells and visits, never to the grid.
type cellTally struct {
	grid   *geo.Grid
	base   *idTable    // (row, col) of the cells with ids below base.len(); read-only
	extra  idTable     // (row, col) of the cells with ids from base.len() on
	cells  []cellState // by cell id
	hours  idTable     // (cell id, epoch hour) of each visit
	visits []visit     // by visit index, the id hours gives
}

// cellState is what a tally keeps per cell id.
type cellState struct {
	users distinctUsers
	last  int32 // the visit touched last, -1 before the first
	head  int32 // the newest visit, -1 before the first
}

// distinctUsers counts the users that touched one table entry. Users are
// fed one after the other, so remembering the last one is enough to count
// each once.
type distinctUsers struct {
	n    int32
	last int32 // uid of the last user counted; uids start at 1
}

func (u *distinctUsers) count(uid int32) {
	if u.last != uid {
		u.last = uid
		u.n++
	}
}

type visit struct {
	users distinctUsers
	prev  int32 // the cell's previous visit, -1 for its first
}

func newCellTally(g *geo.Grid, base *idTable) *cellTally {
	c := &cellTally{}
	c.reset(g, base)
	return c
}

// reset empties c and rebinds it to grid g and base cells, keeping the
// room its tables have grown.
func (c *cellTally) reset(g *geo.Grid, base *idTable) {
	c.grid, c.base = g, base
	c.extra.reset()
	c.hours.reset()
	c.visits = c.visits[:0]
	c.cells = slices.Grow(c.cells[:0], base.len())[:base.len()]
	for i := range c.cells {
		c.cells[i] = cellState{last: -1, head: -1}
	}
}

// tallyCells bins a whole dataset on its own cell ids.
func tallyCells(d *trace.Dataset, g *geo.Grid, traffic bool) *cellTally {
	c := newCellTally(g, &idTable{})
	c.addDataset(d, traffic)
	return c
}

// addDataset bins every trajectory of d; traffic selects whether per-hour
// visits are counted beside the per-cell users.
func (c *cellTally) addDataset(d *trace.Dataset, traffic bool) {
	for i, group := range groupByUser(d) {
		for _, t := range group {
			c.add(t, int32(i+1), traffic)
		}
	}
}

// groupByUser returns the dataset's trajectories user by user, users in
// first-appearance order and each user's trajectories in dataset order.
func groupByUser(d *trace.Dataset) [][]*trace.Trajectory {
	idx := make(map[string]int)
	var groups [][]*trace.Trajectory
	for _, t := range d.Trajectories {
		i, ok := idx[t.User]
		if !ok {
			i = len(groups)
			idx[t.User] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], t)
	}
	return groups
}

// add bins one trajectory of user uid. All trajectories of one user must be
// added before the next user's (see distinctUsers).
func (c *cellTally) add(t *trace.Trajectory, uid int32, traffic bool) {
	var (
		run              geo.Cell
		id               int32 = -1
		hourFrom, hourTo int64 // the run's hour as Unix seconds [from, to)
	)
	for i := range t.Records {
		r := &t.Records[i]
		cell := c.grid.CellOf(r.Pos)
		sameCell := id >= 0 && cell == run
		if !sameCell {
			run, id = cell, c.id(cell)
			c.cells[id].users.count(uid)
		}
		if !traffic {
			continue
		}
		sec := r.Time.Unix()
		if sameCell && sec >= hourFrom && sec < hourTo {
			continue
		}
		hour := floorDiv(sec, 3600)
		hourFrom, hourTo = hour*3600, hour*3600+3600
		c.visit(id, hour).count(uid)
	}
}

// merge adds o's per-cell and per-visit user counts to c's. Both tally the
// same base cells, and the users o counted are not among c's, so counts
// add; o's own cells and visits are found or numbered in c.
func (c *cellTally) merge(o *cellTally) {
	for oid := range o.cells {
		st := &o.cells[oid]
		if st.users.n == 0 {
			continue // a base cell o never visited
		}
		id := c.id(o.cell(int32(oid)))
		c.cells[id].users.n += st.users.n
		for v := st.head; v >= 0; v = o.visits[v].prev {
			c.visit(id, o.hours.keys[v].b).n += o.visits[v].users.n
		}
	}
}

func (c *cellTally) id(cell geo.Cell) int32 {
	row, col := int64(cell.Row), int64(cell.Col)
	if id, ok := c.base.find(row, col); ok {
		return id
	}
	id, added := c.extra.add(row, col)
	if added {
		c.cells = append(c.cells, cellState{last: -1, head: -1})
	}
	return int32(c.base.len()) + id
}

func (c *cellTally) visit(id int32, hour int64) *distinctUsers {
	cs := &c.cells[id]
	if cs.last >= 0 && c.hours.keys[cs.last].b == hour {
		return &c.visits[cs.last].users
	}
	i, added := c.hours.add(int64(id), hour)
	if added {
		c.visits = append(c.visits, visit{prev: cs.head})
		cs.head = i
	}
	cs.last = i
	return &c.visits[i].users
}

func (c *cellTally) cell(id int32) geo.Cell {
	var k idKey
	if nb := c.base.len(); int(id) < nb {
		k = c.base.keys[id]
	} else {
		k = c.extra.keys[int(id)-nb]
	}
	return geo.Cell{Row: int(k.a), Col: int(k.b)}
}

// baseVisited counts the base cells the tallied dataset visits.
func (c *cellTally) baseVisited() int {
	var n int
	for _, s := range c.cells[:c.base.len()] {
		if s.users.n > 0 {
			n++
		}
	}
	return n
}

// scored lists the visited cells with their distinct-user count.
func (c *cellTally) scored() []scoredCell {
	out := make([]scoredCell, 0, len(c.cells))
	for id, s := range c.cells {
		if s.users.n > 0 {
			out = append(out, scoredCell{cell: c.cell(int32(id)), score: float64(s.users.n)})
		}
	}
	return out
}

// days returns the number of distinct UTC days with a visit.
func (c *cellTally) days() int {
	var days []int64
	for _, k := range c.hours.keys {
		if d := floorDiv(k.b, 24); len(days) == 0 || days[len(days)-1] != d {
			days = append(days, d)
		}
	}
	slices.Sort(days)
	return len(slices.Compact(days))
}

// hourlyMeans folds the visits into the forecaster's form: per cell and
// hour of day, the visits averaged over the observed days, sorted by
// cell-hour. The cells with a visit are put in (row, col) order once; each
// then walks its own visit chain into 24 hour-of-day sums, so no visit is
// compared with another. Visit counts are integers, so summing them in any
// order gives the float sum the day-ordered fold of
// hourlyMeans(*TrafficCounts) gives.
func (c *cellTally) hourlyMeans() []hourMean {
	days := float64(c.days())
	var ids []int32
	for id, s := range c.cells {
		if s.head >= 0 {
			ids = append(ids, int32(id))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int { return compareCell(c.cell(a), c.cell(b)) })
	out := make([]hourMean, 0, len(c.visits))
	var sums [24]int64
	for _, id := range ids {
		var hours uint32 // bit h: the cell has a visit at hour of day h
		for v := c.cells[id].head; v >= 0; v = c.visits[v].prev {
			h := floorMod(c.hours.keys[v].b, 24)
			sums[h] += int64(c.visits[v].users.n)
			hours |= 1 << h
		}
		cell := c.cell(id)
		for ; hours != 0; hours &= hours - 1 {
			h := bits.TrailingZeros32(hours)
			out = append(out, hourMean{ch: CellHour{Cell: cell, Hour: h}, v: float64(sums[h]) / days})
			sums[h] = 0
		}
	}
	return out
}

// trafficCounts renders the visits in the exported map form, formatting
// each distinct day once.
func (c *cellTally) trafficCounts() *TrafficCounts {
	tc := &TrafficCounts{
		Visits: make(map[CellHour]map[string]float64),
		Days:   make(map[string]bool),
	}
	names := make(map[int64]string)
	for i, k := range c.hours.keys {
		day := floorDiv(k.b, 24)
		name, ok := names[day]
		if !ok {
			name = time.Unix(day*86400, 0).UTC().Format("2006-01-02")
			names[day] = name
			tc.Days[name] = true
		}
		ch := CellHour{Cell: c.cell(int32(k.a)), Hour: int(floorMod(k.b, 24))}
		byDay, ok := tc.Visits[ch]
		if !ok {
			byDay = make(map[string]float64)
			tc.Visits[ch] = byDay
		}
		byDay[name] = float64(c.visits[i].users.n)
	}
	return tc
}

// idTable numbers distinct pairs of integers — a cell's (row, col), or a
// visit's (cell id, epoch hour) — 0, 1, 2, … in the order they are added.
// It keeps the pairs in that order and finds them by open addressing with
// linear probing over a power-of-two slot array at most half full, hashed
// by two multiplications. The zero value is an empty table. Finding in a
// table nobody adds to is safe from any number of goroutines.
type idTable struct {
	keys  []idKey // by id
	slots []int32 // the id + 1 of the key homed at or probed past here; 0 is empty
	shift uint    // 64 - log2(len(slots))
}

type idKey struct{ a, b int64 }

func (t *idTable) len() int { return len(t.keys) }

// reset empties t, keeping its slot array.
func (t *idTable) reset() {
	t.keys = t.keys[:0]
	clear(t.slots)
}

func (t *idTable) home(a, b int64) int {
	return int((uint64(a)*0x9e3779b97f4a7c15 + uint64(b)) * 0xbf58476d1ce4e5b9 >> t.shift)
}

// find returns the id of (a, b), if it has one.
func (t *idTable) find(a, b int64) (int32, bool) {
	if len(t.keys) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(a, b); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if k := &t.keys[s-1]; k.a == a && k.b == b {
			return s - 1, true
		}
	}
}

// add returns the id of (a, b), numbering it first if it has none; added
// reports whether it did.
func (t *idTable) add(a, b int64) (id int32, added bool) {
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(a, b); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.keys = append(t.keys, idKey{a, b})
			t.slots[i] = int32(len(t.keys))
			return int32(len(t.keys) - 1), true
		}
		if k := &t.keys[s-1]; k.a == a && k.b == b {
			return s - 1, false
		}
	}
}

// grow doubles the slot array (to 16 slots from empty) and re-homes every
// key.
func (t *idTable) grow() {
	size := max(16, 2*len(t.slots))
	t.slots = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for id, k := range t.keys {
		i := t.home(k.a, k.b)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}

// floorDiv and floorMod round toward negative infinity, so instants before
// 1970 fall in the hour and day that contain them.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
