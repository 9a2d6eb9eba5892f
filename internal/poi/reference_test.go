package poi

// The stay-point detector as it stood before the latitude band and the
// in-place centroid, body unchanged (only renamed with a ref prefix): the
// oracle TestStayPointsMatchReference and FuzzStayPointsMatchReference hold
// StayPoints.Extract to. It exists nowhere outside this file.

import (
	"apisense/internal/geo"
	"apisense/internal/trace"
)

// refExtract implements Extractor.
func (s *StayPoints) refExtract(t *trace.Trajectory) []POI {
	recs := t.Records
	var out []POI
	i := 0
	for i < len(recs) {
		j := i + 1
		for j < len(recs) && geo.Distance(recs[i].Pos, recs[j].Pos) <= s.cfg.MaxDistance {
			j++
		}
		// recs[i:j] stay within MaxDistance of the anchor.
		if dwell := recs[j-1].Time.Sub(recs[i].Time); dwell >= s.cfg.MinDuration {
			pts := make([]geo.Point, 0, j-i)
			for _, r := range recs[i:j] {
				pts = append(pts, r.Pos)
			}
			out = append(out, POI{
				Center: geo.Centroid(pts),
				Enter:  recs[i].Time,
				Leave:  recs[j-1].Time,
				Fixes:  j - i,
			})
			i = j
			continue
		}
		i++
	}
	return out
}
