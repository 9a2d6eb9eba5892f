// Package mobgen generates synthetic human-mobility datasets.
//
// The paper evaluates PRIVAPI on proprietary real-life GPS datasets that are
// not redistributable. This generator is the documented substitution (see
// DESIGN.md §2): it produces agenda-driven traces — overnight stays at home,
// commutes, office hours, lunch and leisure trips — because every quantity
// the paper's claims rest on (dwell-time structure revealing points of
// interest, repeated daily routines enabling re-identification, and spatial
// density enabling crowd/traffic analytics) is a function of exactly that
// routine structure.
//
// Generation is fully deterministic for a given Config.Seed.
package mobgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// Config parameterises the generator.
type Config struct {
	// Seed makes the dataset reproducible.
	Seed uint64
	// Users is the number of simulated contributors.
	Users int
	// Days is the number of consecutive days to simulate.
	Days int
	// Start is the first simulated instant (midnight of day one). Zero
	// means 2014-12-08 UTC, the week of Middleware'14.
	Start time.Time
	// Center is the city centre. Zero means Lyon, France.
	Center geo.Point
	// CityRadius is the radius in metres within which homes are placed.
	// Zero means 6000 m.
	CityRadius float64
	// Workplaces is the size of the shared workplace pool. Zero means
	// max(3, Users/6).
	Workplaces int
	// LeisureSites is the size of the shared leisure pool (restaurants,
	// cinemas, parks). Zero means max(5, Users/4).
	LeisureSites int
	// SamplePeriod is the GPS sampling period. Zero means 60 s.
	SamplePeriod time.Duration
	// GPSNoise is the standard deviation of per-fix Gaussian noise in
	// metres. Zero means 4 m. Set negative to disable noise.
	GPSNoise float64
	// Dropout is the probability that an individual fix is lost.
	Dropout float64
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2014, 12, 8, 0, 0, 0, 0, time.UTC)
	}
	if c.Center == (geo.Point{}) {
		c.Center = geo.Point{Lat: 45.7640, Lon: 4.8357}
	}
	if c.CityRadius == 0 {
		c.CityRadius = 6000
	}
	if c.Workplaces == 0 {
		c.Workplaces = maxInt(3, c.Users/6)
	}
	if c.LeisureSites == 0 {
		c.LeisureSites = maxInt(5, c.Users/4)
	}
	if c.SamplePeriod == 0 {
		c.SamplePeriod = time.Minute
	}
	if c.GPSNoise == 0 {
		c.GPSNoise = 4
	}
	if c.GPSNoise < 0 {
		c.GPSNoise = 0
	}
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Users <= 0 {
		return fmt.Errorf("mobgen: Users must be positive, got %d", c.Users)
	}
	if c.Days <= 0 {
		return fmt.Errorf("mobgen: Days must be positive, got %d", c.Days)
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("mobgen: Dropout must be in [0,1), got %v", c.Dropout)
	}
	if !c.Start.IsZero() && (!trace.InRange(c.Start) || !trace.InRange(c.Start.AddDate(0, 0, c.Days))) {
		return fmt.Errorf("mobgen: the %d days from Start %v must lie between 1677 and 2262", c.Days, c.Start)
	}
	return nil
}

// Site is a named place in the simulated city.
type Site struct {
	Name string
	Pos  geo.Point
}

// Resident is the ground truth for one simulated user: the places that an
// ideal attacker would call this user's points of interest.
type Resident struct {
	User    string
	Home    geo.Point
	Work    geo.Point
	Leisure geo.Point // the user's favourite leisure site
}

// TruePOIs returns the resident's ground-truth points of interest
// (home, workplace, favourite leisure site).
func (r Resident) TruePOIs() []geo.Point {
	return []geo.Point{r.Home, r.Work, r.Leisure}
}

// City is the generated environment plus the per-user ground truth.
type City struct {
	Center     geo.Point
	Radius     float64
	Workplaces []Site
	Leisure    []Site
	Residents  []Resident
}

// Resident returns the ground truth for the given user. ok is false for
// unknown users.
func (c *City) Resident(user string) (Resident, bool) {
	for _, r := range c.Residents {
		if r.User == user {
			return r, true
		}
	}
	return Resident{}, false
}

// Generate produces one trajectory per user per day.
func Generate(cfg Config) (*trace.Dataset, *City, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	city := buildCity(cfg, rng)
	ds := trace.NewDataset()
	for _, res := range city.Residents {
		for day := 0; day < cfg.Days; day++ {
			dayStart := cfg.Start.AddDate(0, 0, day)
			itin := buildItinerary(res, city, dayStart, rng)
			tr := sampleItinerary(res.User, itin, cfg, rng)
			if tr.Len() > 0 {
				ds.Add(tr)
			}
		}
	}
	return ds, city, nil
}

func buildCity(cfg Config, rng *rand.Rand) *City {
	city := &City{Center: cfg.Center, Radius: cfg.CityRadius}
	for i := 0; i < cfg.Workplaces; i++ {
		city.Workplaces = append(city.Workplaces, Site{
			Name: fmt.Sprintf("work-%02d", i),
			Pos:  randomSite(cfg.Center, cfg.CityRadius*0.6, rng),
		})
	}
	for i := 0; i < cfg.LeisureSites; i++ {
		city.Leisure = append(city.Leisure, Site{
			Name: fmt.Sprintf("leisure-%02d", i),
			Pos:  randomSite(cfg.Center, cfg.CityRadius*0.9, rng),
		})
	}
	for i := 0; i < cfg.Users; i++ {
		res := Resident{
			User: fmt.Sprintf("user-%03d", i),
			Home: randomSite(cfg.Center, cfg.CityRadius, rng),
		}
		res.Work = city.Workplaces[rng.IntN(len(city.Workplaces))].Pos
		res.Leisure = city.Leisure[rng.IntN(len(city.Leisure))].Pos
		city.Residents = append(city.Residents, res)
	}
	return city
}

// randomSite draws a point uniformly from the disc of the given radius.
func randomSite(center geo.Point, radius float64, rng *rand.Rand) geo.Point {
	r := radius * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 2 * math.Pi
	return geo.Translate(center, r*math.Cos(theta), r*math.Sin(theta))
}
