package lppm

import (
	"context"
	"encoding/hex"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// builtins returns instances of every built-in mechanism by label, the
// cloaking grid anchored at origin.
func builtins(t testing.TB, origin geo.Point) map[string]Mechanism {
	t.Helper()
	must := func(m Mechanism, err error) Mechanism {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	smoothing := must(NewSpeedSmoothing(100, 2))
	geoind := must(NewGeoInd(0.01, 1))
	coarse := must(NewSpeedSmoothing(3000, 2)) // suppresses 3 of the 8 trajectories of mobgen 4x2
	return map[string]Mechanism{
		"identity":    Identity{},
		"geoind":      geoind,
		"geoind7":     must(NewGeoInd(0.002, 7)),
		"gaussian":    must(NewGaussianNoise(120, 3)),
		"cloaking":    must(NewCloaking(400, origin)),
		"downsample":  must(NewDownsample(7)),
		"simplify":    must(NewSimplify(80)),
		"smoothing":   smoothing,
		"smoothing1":  must(NewSpeedSmoothing(50, 1)),
		"smoothing3k": coarse,
		"timeshift":   &TimeShift{Offset: 90 * time.Minute},
		"compose":     must(NewCompose(smoothing, geoind)),
		"compose3k":   must(NewCompose(coarse, geoind)),
	}
}

// TestMechanismsMatchParent: ProtectDataset releases, for every built-in
// mechanism on mobgen 4 users x 2 days (seed 1), the content hashes the
// mechanisms gave when each returned a fresh trajectory instead of
// appending to a buffer.
func TestMechanismsMatchParent(t *testing.T) {
	want := map[string]string{
		"identity":    "d313803ff10182762dfbe1cf7d2fadc17b1adff24e8de88b42898ce586f13671",
		"geoind":      "c27e57412f8e4dbcb812bae4f74afe83271cfbd4113819a0fd707c11fe73c687",
		"geoind7":     "cbe4d9f1fbb2e804e0af040ef8aae0f16780de13292810d127b2e924452199c3",
		"gaussian":    "6413d0519bf98f208f76df23c84db5d22b7f755266f2920b92de4acb46679a6f",
		"cloaking":    "6798f70d8f943215dd8bf5fe9e3ca8c45c21b4684622e470f49727466add6b03",
		"downsample":  "d9bfde397f0dfbe9e9c8b4638eca100efbe69050c725080e82b7f79b5b68ff95",
		"simplify":    "4a0d8f7d7f7c75d075c94f1136a98e03282be3cf905fe02e69c9477c2b955ad5",
		"smoothing":   "d7058348f943a2522de564af42573b7b152da64592cd085539a9753185850090",
		"smoothing1":  "0b2315d7fce9ed218c1138e957a47f67e350b47cf65f6057d7ade3974dc4c66a",
		"smoothing3k": "02f55c2d271ccbb8371a149a915e7c0f0755ef8ab69cc41e13ba620cf9f5a05d",
		"timeshift":   "13eb173dc6b7f9575935497ea6ee4d87875a5ce6f479c34f5eef4a703db510eb",
		"compose":     "5a84f272027694d3c711633384a689601775de20e7fb3f89be4ee318ae698212",
		"compose3k":   "42f94ac1805e843aefebf5ba280bf1e4d1975aa588abe7e1ba5b6b9a4f92fef7",
	}
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 1, Users: 4, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := builtins(t, ds.Trajectories[0].Records[0].Pos)
	if len(ms) != len(want) {
		t.Fatalf("%d mechanisms, %d pinned hashes", len(ms), len(want))
	}
	for name, m := range ms {
		for _, parallelism := range []int{1, 3} {
			out, err := ProtectDatasetContext(context.Background(), m, ds, parallelism)
			if err != nil {
				t.Fatal(err)
			}
			h := out.ContentHash()
			if got := hex.EncodeToString(h[:]); got != want[name] {
				t.Errorf("%s at parallelism %d: release hash %s, want %s", name, parallelism, got, want[name])
			}
			for _, tr := range out.Trajectories {
				if cap(tr.Records) != len(tr.Records) {
					t.Errorf("%s: a released trajectory has %d records and capacity %d", name, len(tr.Records), cap(tr.Records))
					break
				}
			}
		}
	}
}

// fuzzTrajectory reads 3-byte records (minutes since the previous fix, and
// east and north offsets in units of 40 m) into one trajectory around
// lyon.
func fuzzTrajectory(data []byte) *trace.Trajectory {
	tr := &trace.Trajectory{User: "fuzz"}
	at := t0
	for ; len(data) >= 3; data = data[3:] {
		at = at.Add(time.Duration(data[0]) * time.Minute)
		tr.Records = append(tr.Records, trace.Record{
			Time:     trace.InstantOf(at),
			Pos:      geo.Translate(lyon, float64(int8(data[1]))*40, float64(int8(data[2]))*40),
			Accuracy: float64(data[0] % 7),
		})
	}
	return tr
}

// FuzzMechanismAppend: every built-in mechanism appends to a non-empty
// dst without touching its prefix, appends the same records whatever dst
// held before or however much room it had, leaves t unchanged and appends
// records that do not alias t's.
func FuzzMechanismAppend(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(2), uint8(40), []byte{1, 0, 0, 1, 0, 0, 1, 5, 5, 30, 100, 20, 1, 101, 21, 1, 102, 20})
	f.Add(uint8(9), uint8(3), []byte{0, 10, 10, 0, 10, 10, 60, 250, 3, 1, 251, 4, 1, 252, 5, 1, 253, 6, 90, 7, 7})
	ms := builtins(f, lyon)
	f.Fuzz(func(t *testing.T, prefix, spare uint8, data []byte) {
		if len(data) > 3*512 {
			return
		}
		tr := fuzzTrajectory(data)
		before := slices.Clone(tr.Records)
		junk := trace.Record{Time: trace.InstantOf(t0.Add(-time.Hour)), Pos: geo.Point{Lat: -1, Lon: -1}, Accuracy: 99}
		for name, m := range ms {
			want, err := m.Protect(nil, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p := int(prefix % 16)
			full := make([]trace.Record, p+int(spare))
			for i := range full {
				full[i] = junk
				full[i].Accuracy = float64(i)
			}
			dst := full[:p]
			head := slices.Clone(dst)
			got, err := m.Protect(dst, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) < p || !slices.Equal(got[:p], head) {
				t.Fatalf("%s: the %d-record prefix of dst changed", name, p)
			}
			if !slices.Equal(got[p:], want) {
				t.Fatalf("%s: appended %d records that differ from the %d it gives into nil", name, len(got)-p, len(want))
			}
			if !slices.Equal(tr.Records, before) {
				t.Fatalf("%s: mutated its input", name)
			}
			for i := range got[p:] {
				got[p+i] = junk
			}
			if !slices.Equal(tr.Records, before) {
				t.Fatalf("%s: appended records alias the input", name)
			}
		}
	})
}

// TestSpec: Spec spells out every parameter, so FromSpec rebuilds an
// equal mechanism, and mechanisms whose names agree but whose seeds or
// origins differ get different specs.
func TestSpec(t *testing.T) {
	for name, m := range builtins(t, lyon) {
		spec := Spec(m)
		back, err := FromSpec(spec)
		if strings.HasPrefix(spec, "*lppm.") {
			if err == nil {
				t.Errorf("%s: FromSpec accepted the type-named spec %q", name, spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: FromSpec(%q): %v", name, spec, err)
			continue
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%s: FromSpec(%q) = %#v, want %#v", name, spec, back, m)
		}
	}
	cases := []struct{ m, same, other Mechanism }{
		{&GeoInd{Epsilon: 0.002, Seed: 1}, &GeoInd{Epsilon: 0.002, Seed: 1}, &GeoInd{Epsilon: 0.002, Seed: 2}},
		{&GaussianNoise{Sigma: 50, Seed: 1}, &GaussianNoise{Sigma: 50, Seed: 1}, &GaussianNoise{Sigma: 50, Seed: 2}},
		{&Cloaking{CellSize: 800, Origin: lyon}, &Cloaking{CellSize: 800, Origin: lyon}, &Cloaking{CellSize: 800, Origin: geo.Point{Lat: 48.85, Lon: 2.35}}},
		{
			&Compose{Mechanisms: []Mechanism{&GeoInd{Epsilon: 0.01, Seed: 1}}},
			&Compose{Mechanisms: []Mechanism{&GeoInd{Epsilon: 0.01, Seed: 1}}},
			&Compose{Mechanisms: []Mechanism{&GeoInd{Epsilon: 0.01, Seed: 2}}},
		},
	}
	for _, c := range cases {
		if c.m.Name() != c.other.Name() {
			t.Fatalf("case %s: names differ, nothing to tell apart", c.m.Name())
		}
		if Spec(c.m) != Spec(c.same) || Spec(c.m) == Spec(c.other) {
			t.Errorf("Spec(%s) = %q, same %q, other %q", c.m.Name(), Spec(c.m), Spec(c.same), Spec(c.other))
		}
	}
	for m, want := range map[Mechanism]string{
		&GeoInd{Epsilon: 0.002, Seed: 2}: "geoind:eps=0.002,seed=2",
		&TimeShift{Offset: time.Hour}:    "*lppm.TimeShift timeshift(1h0m0s)",
	} {
		if got := Spec(m); got != want {
			t.Errorf("Spec(%s) = %q, want %q", m.Name(), got, want)
		}
	}
}
