// Package geo provides the geodesic substrate used throughout the
// crowd-sensing stack: WGS84 coordinates, great-circle and fast
// equirectangular distances, bearings, destination points, linear
// interpolation along segments, bounding boxes and uniform grids.
//
// All distances are expressed in metres and all angles in degrees unless
// stated otherwise. The package is allocation-free on its hot paths
// (distance and projection) so that privacy mechanisms and metrics can
// process millions of points cheaply.
package geo

import (
	"fmt"
	"math"
)

const (
	// EarthRadius is the mean Earth radius in metres (IUGG).
	EarthRadius = 6371008.8

	degToRad = math.Pi / 180
	radToDeg = 180 / math.Pi
)

// Point is a WGS84 coordinate pair.
type Point struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, [-180, 180)
}

// P is a shorthand constructor for Point.
func P(lat, lon float64) Point { return Point{Lat: lat, Lon: lon} }

// Valid reports whether the point lies within WGS84 coordinate bounds.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Haversine returns the great-circle distance in metres between p and q.
func Haversine(p, q Point) float64 {
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLat := (q.Lat - p.Lat) * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if a > 1 {
		a = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(a))
}

// Distance returns the fast equirectangular-approximation distance in metres
// between p and q. It is accurate to well under 0.1% for the city-scale
// separations (tens of kilometres) this stack works with, and roughly 3x
// cheaper than Haversine.
func Distance(p, q Point) float64 {
	midLat := (p.Lat + q.Lat) / 2 * degToRad
	dLat := (q.Lat - p.Lat) * degToRad
	dLon := (q.Lon - p.Lon) * degToRad * math.Cos(midLat)
	return EarthRadius * math.Sqrt(dLat*dLat+dLon*dLon)
}

// LatBand decides Distance(p, q) <= d for pairs whose mean latitude lies in
// a band of latitudes, mostly without the cosine Distance evaluates. Over
// [lo, hi] within ±90°, cos is largest at the latitude nearest the equator
// and smallest at the one furthest from it, so the cosine Distance applies
// to such a pair lies in [cLo, cHi], both taken once when the band is made.
// Squared, the scaled distance is then bracketed by
//
//	dLat² + (dLon·cLo)²  ≤  (Distance/R)²  ≤  dLat² + (dLon·cHi)²
//
// and when the whole bracket falls below or above (d/R)² the answer is
// known. Every quantity here carries a relative rounding error of a few
// units of 2⁻⁵³ (~1e-15): the cosine bounds are widened by 1e-12, and each
// test must clear (d/R)² by a relative 1e-9, so a pair the bracket decides
// is decided as Distance decides it. Pairs it does not settle — those
// within ~0.1% of d on a city-sized band — fall back to Distance, as do
// all pairs of a band that is not within ±90° or holds a NaN, a mean
// latitude outside the band, and radii whose (d/R)² is not a normal float.
// The zero LatBand decides nothing.
type LatBand struct {
	ok       bool
	lo, hi   float64 // degrees
	cLo, cHi float64
}

const (
	// bandCosSlack widens the cosine bounds past math.Cos's error.
	bandCosSlack = 1e-12
	// bandMargin is the relative margin each test keeps from (d/R)².
	bandMargin = 1e-9
)

// NewLatBand returns the band of latitudes [lo, hi], in degrees. A band
// that is empty, holds a NaN or reaches past ±90° spares no cosine: its
// Within calls Distance for every pair.
func NewLatBand(lo, hi float64) LatBand {
	if !(-90 <= lo && lo <= hi && hi <= 90) {
		return LatBand{}
	}
	near := 0.0 // the latitude nearest the equator
	if lo > 0 {
		near = lo
	} else if hi < 0 {
		near = -hi
	}
	far := max(-lo, hi)
	return LatBand{
		ok:  true,
		lo:  lo,
		hi:  hi,
		cLo: max(math.Cos(far*degToRad)-bandCosSlack, 0),
		cHi: math.Cos(near*degToRad) + bandCosSlack,
	}
}

// Within returns exactly Distance(p, q) <= d.
func (b LatBand) Within(p, q Point, d float64) bool {
	mid := (p.Lat + q.Lat) / 2
	t := d / EarthRadius
	if b.ok && mid >= b.lo && mid <= b.hi && t >= 0x1p-511 && t <= 0x1p511 {
		thr := t * t
		dLat := (q.Lat - p.Lat) * degToRad
		dLon := (q.Lon - p.Lon) * degToRad
		lat2 := dLat * dLat
		if x := dLon * b.cHi; (lat2+x*x)*(1+bandMargin) < thr {
			return true
		}
		if x := dLon * b.cLo; lat2+x*x > thr*(1+bandMargin) {
			return false
		}
	}
	return Distance(p, q) <= d
}

// Bearing returns the initial great-circle bearing in degrees [0, 360) to
// travel from p to q.
func Bearing(p, q Point) float64 {
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	b := math.Atan2(y, x) * radToDeg
	return math.Mod(b+360, 360)
}

// Destination returns the point reached by travelling dist metres from p at
// the given initial bearing (degrees).
func Destination(p Point, bearingDeg, dist float64) Point {
	lat1 := p.Lat * degToRad
	lon1 := p.Lon * degToRad
	brng := bearingDeg * degToRad
	dr := dist / EarthRadius

	sinLat1, cosLat1 := math.Sincos(lat1)
	sinDr, cosDr := math.Sincos(dr)

	lat2 := math.Asin(sinLat1*cosDr + cosLat1*sinDr*math.Cos(brng))
	lon2 := lon1 + math.Atan2(math.Sin(brng)*sinDr*cosLat1, cosDr-sinLat1*math.Sin(lat2))
	return Point{Lat: lat2 * radToDeg, Lon: normalizeLonRad(lon2) * radToDeg}
}

func normalizeLonRad(lon float64) float64 {
	for lon >= math.Pi {
		lon -= 2 * math.Pi
	}
	for lon < -math.Pi {
		lon += 2 * math.Pi
	}
	return lon
}

// Lerp linearly interpolates between p and q. t=0 yields p, t=1 yields q.
// Interpolation is performed in coordinate space, which is adequate for the
// sub-kilometre segments produced by GPS sampling.
func Lerp(p, q Point, t float64) Point {
	return Point{
		Lat: p.Lat + (q.Lat-p.Lat)*t,
		Lon: p.Lon + (q.Lon-p.Lon)*t,
	}
}

// Midpoint returns the coordinate-space midpoint of p and q.
func Midpoint(p, q Point) Point { return Lerp(p, q, 0.5) }

// Centroid returns the coordinate-space centroid of the given points.
// It returns the zero Point when pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var lat, lon float64
	for _, p := range pts {
		lat += p.Lat
		lon += p.Lon
	}
	n := float64(len(pts))
	return Point{Lat: lat / n, Lon: lon / n}
}
