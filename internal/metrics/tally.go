package metrics

import (
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
// RawView's cells (base) gives those cells the view's ids, so raw and
// protected visits are compared by id; cells outside base get the ids
// after them. Memory is proportional to the visited cells, never to the
// grid.
type cellTally struct {
	grid     *geo.Grid
	base     []geo.Cell
	baseIdx  map[geo.Cell]int32
	extra    []geo.Cell
	extraIdx map[geo.Cell]int32
	users    []distinctUsers // by cell id
	visits   []visit
	visitIdx map[visitKey]int32
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

// visitKey is one cell during one hour since the Unix epoch (floored, so
// pre-1970 hours are negative).
type visitKey struct {
	cell int32
	hour int64
}

type visit struct {
	key   visitKey
	users distinctUsers
}

func newCellTally(g *geo.Grid, base []geo.Cell, baseIdx map[geo.Cell]int32) *cellTally {
	return &cellTally{
		grid:     g,
		base:     base,
		baseIdx:  baseIdx,
		extraIdx: make(map[geo.Cell]int32),
		users:    make([]distinctUsers, len(base)),
		visitIdx: make(map[visitKey]int32),
	}
}

// tallyCells bins a whole dataset on its own cell ids.
func tallyCells(d *trace.Dataset, g *geo.Grid, traffic bool) *cellTally {
	c := newCellTally(g, nil, nil)
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
			c.users[id].count(uid)
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
		c.visit(visitKey{cell: id, hour: hour}).count(uid)
	}
}

func (c *cellTally) id(cell geo.Cell) int32 {
	if id, ok := c.baseIdx[cell]; ok {
		return id
	}
	if id, ok := c.extraIdx[cell]; ok {
		return id
	}
	id := int32(len(c.users))
	c.extraIdx[cell] = id
	c.extra = append(c.extra, cell)
	c.users = append(c.users, distinctUsers{})
	return id
}

func (c *cellTally) visit(k visitKey) *distinctUsers {
	i, ok := c.visitIdx[k]
	if !ok {
		i = int32(len(c.visits))
		c.visitIdx[k] = i
		c.visits = append(c.visits, visit{key: k})
	}
	return &c.visits[i].users
}

func (c *cellTally) cell(id int32) geo.Cell {
	if int(id) < len(c.base) {
		return c.base[id]
	}
	return c.extra[int(id)-len(c.base)]
}

// baseVisited counts the base cells the tallied dataset visits.
func (c *cellTally) baseVisited() int {
	var n int
	for _, u := range c.users[:len(c.base)] {
		if u.n > 0 {
			n++
		}
	}
	return n
}

// scored lists the visited cells with their distinct-user count.
func (c *cellTally) scored() []scoredCell {
	out := make([]scoredCell, 0, len(c.users))
	for id, u := range c.users {
		if u.n > 0 {
			out = append(out, scoredCell{cell: c.cell(int32(id)), score: float64(u.n)})
		}
	}
	return out
}

// days returns the number of distinct UTC days with a visit.
func (c *cellTally) days() int {
	seen := make(map[int64]struct{})
	for _, v := range c.visits {
		seen[floorDiv(v.key.hour, 24)] = struct{}{}
	}
	return len(seen)
}

// hourlyMeans folds the visits into the forecaster's form: per cell and
// hour of day, the visits averaged over the observed days, sorted by
// cell-hour. Visit counts are integers, so summing them in any order gives
// the float sum the day-ordered fold of hourlyMeans(*TrafficCounts) gives.
func (c *cellTally) hourlyMeans() []hourMean {
	days := float64(c.days())
	out := make([]hourMean, len(c.visits))
	for i, v := range c.visits {
		out[i] = hourMean{
			ch: CellHour{Cell: c.cell(v.key.cell), Hour: int(floorMod(v.key.hour, 24))},
			v:  float64(v.users.n),
		}
	}
	slices.SortFunc(out, func(a, b hourMean) int { return compareCellHour(a.ch, b.ch) })
	n := 0
	for _, m := range out {
		if n > 0 && out[n-1].ch == m.ch {
			out[n-1].v += m.v
			continue
		}
		out[n] = m
		n++
	}
	out = out[:n]
	for i := range out {
		out[i].v /= days
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
	for _, v := range c.visits {
		day := floorDiv(v.key.hour, 24)
		name, ok := names[day]
		if !ok {
			name = time.Unix(day*86400, 0).UTC().Format("2006-01-02")
			names[day] = name
			tc.Days[name] = true
		}
		ch := CellHour{Cell: c.cell(v.key.cell), Hour: int(floorMod(v.key.hour, 24))}
		byDay, ok := tc.Visits[ch]
		if !ok {
			byDay = make(map[string]float64)
			tc.Visits[ch] = byDay
		}
		byDay[name] = float64(v.users.n)
	}
	return tc
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
