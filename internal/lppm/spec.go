package lppm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"apisense/internal/geo"
)

// specKeys lists the keys each mechanism's spec accepts, by the names
// FromSpec builds.
var specKeys = map[string][]string{
	"identity":   nil,
	"geoind":     {"eps", "seed"},
	"gaussian":   {"sigma", "seed"},
	"cloaking":   {"cell", "lat", "lon"},
	"downsample": {"k"},
	"simplify":   {"tol"},
	"smoothing":  {"eps", "trim"},
}

// FromSpec builds a mechanism from a textual specification of the form
// "name" or "name:key=value,key=value". It is the format accepted by the
// privapi command-line tool and by task manifests. A key the mechanism
// does not accept, or a key given twice, is an error; seeds are unsigned.
//
// Recognised specs:
//
//	identity
//	geoind:eps=0.01[,seed=N]
//	gaussian:sigma=120[,seed=N]
//	cloaking:cell=400[,lat=45.76,lon=4.83]
//	downsample:k=10
//	simplify:tol=100
//	smoothing:eps=100[,trim=2]
func FromSpec(spec string) (Mechanism, error) {
	name, argStr, _ := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	accepted, known := specKeys[name]
	if !known {
		return nil, fmt.Errorf("lppm: unknown mechanism %q", name)
	}
	args := map[string]string{}
	if argStr != "" {
		for _, kv := range strings.Split(argStr, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("lppm: malformed argument %q in spec %q", kv, spec)
			}
			k = strings.TrimSpace(k)
			if !slices.Contains(accepted, k) {
				keys := strings.Join(accepted, ", ")
				if keys == "" {
					keys = "none"
				}
				return nil, fmt.Errorf("lppm: spec %q: unknown key %q (%s accepts: %s)", spec, k, name, keys)
			}
			if _, dup := args[k]; dup {
				return nil, fmt.Errorf("lppm: spec %q: key %q given twice", spec, k)
			}
			args[k] = strings.TrimSpace(v)
		}
	}
	getF := func(key string, def float64) (float64, error) {
		s, ok := args[key]
		if !ok {
			return def, nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("lppm: spec %q: bad %s: %w", spec, key, err)
		}
		return v, nil
	}
	getI := func(key string, def int) (int, error) {
		s, ok := args[key]
		if !ok {
			return def, nil
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("lppm: spec %q: bad %s: %w", spec, key, err)
		}
		return v, nil
	}
	getSeed := func() (uint64, error) {
		s, ok := args["seed"]
		if !ok {
			return 1, nil
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("lppm: spec %q: bad seed: %w", spec, err)
		}
		return v, nil
	}

	switch name {
	case "identity":
		return Identity{}, nil
	case "geoind":
		eps, err := getF("eps", 0.01)
		if err != nil {
			return nil, err
		}
		seed, err := getSeed()
		if err != nil {
			return nil, err
		}
		return NewGeoInd(eps, seed)
	case "gaussian":
		sigma, err := getF("sigma", 100)
		if err != nil {
			return nil, err
		}
		seed, err := getSeed()
		if err != nil {
			return nil, err
		}
		return NewGaussianNoise(sigma, seed)
	case "cloaking":
		cell, err := getF("cell", 400)
		if err != nil {
			return nil, err
		}
		lat, err := getF("lat", 0)
		if err != nil {
			return nil, err
		}
		lon, err := getF("lon", 0)
		if err != nil {
			return nil, err
		}
		return NewCloaking(cell, geo.Point{Lat: lat, Lon: lon})
	case "downsample":
		k, err := getI("k", 10)
		if err != nil {
			return nil, err
		}
		return NewDownsample(k)
	case "simplify":
		tol, err := getF("tol", 100)
		if err != nil {
			return nil, err
		}
		return NewSimplify(tol)
	default: // "smoothing"
		eps, err := getF("eps", 100)
		if err != nil {
			return nil, err
		}
		trim, err := getI("trim", 2)
		if err != nil {
			return nil, err
		}
		return NewSpeedSmoothing(eps, trim)
	}
}

// Spec renders m in the FromSpec form with every parameter spelled out —
// seeds and the cloaking origin included, which Name omits — so that two
// mechanisms with equal specs protect identically. Floats use the shortest
// form that parses back to the same value. A mechanism FromSpec cannot
// build renders as its Go type and Name; a Compose as its type and the
// specs of its stages.
func Spec(m Mechanism) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch m := m.(type) {
	case Identity:
		return "identity"
	case *GeoInd:
		return fmt.Sprintf("geoind:eps=%s,seed=%d", f(m.Epsilon), m.Seed)
	case *GaussianNoise:
		return fmt.Sprintf("gaussian:sigma=%s,seed=%d", f(m.Sigma), m.Seed)
	case *Cloaking:
		return fmt.Sprintf("cloaking:cell=%s,lat=%s,lon=%s", f(m.CellSize), f(m.Origin.Lat), f(m.Origin.Lon))
	case *Downsample:
		return fmt.Sprintf("downsample:k=%d", m.Factor)
	case *Simplify:
		return fmt.Sprintf("simplify:tol=%s", f(m.Tolerance))
	case *SpeedSmoothing:
		return fmt.Sprintf("smoothing:eps=%s,trim=%d", f(m.Epsilon), m.Trim)
	case *Compose:
		stages := make([]string, len(m.Mechanisms))
		for i, s := range m.Mechanisms {
			stages[i] = Spec(s)
		}
		return fmt.Sprintf("%T(%s)", m, strings.Join(stages, "+"))
	default:
		return fmt.Sprintf("%T %s", m, m.Name())
	}
}
