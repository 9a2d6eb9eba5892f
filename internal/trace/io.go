package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// CSV layout: user,timestamp(RFC3339),lat,lon,accuracy
// The header row is written on output and tolerated on input.

var csvHeader = []string{"user", "time", "lat", "lon", "accuracy"}

// WriteCSV writes the dataset in the canonical CSV layout.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write csv header: %w", err)
	}
	row := make([]string, 5)
	for _, t := range d.Trajectories {
		for _, r := range t.Records {
			row[0] = t.User
			row[1] = r.Time.Time().Format(time.RFC3339Nano)
			row[2] = strconv.FormatFloat(r.Pos.Lat, 'f', -1, 64)
			row[3] = strconv.FormatFloat(r.Pos.Lon, 'f', -1, 64)
			row[4] = strconv.FormatFloat(r.Accuracy, 'f', -1, 64)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush csv: %w", err)
	}
	return nil
}

// ReadCSV parses a dataset from the canonical CSV layout. Consecutive rows
// with the same user form one trajectory; a change of user starts a new one,
// so a round trip through WriteCSV/ReadCSV preserves trajectory boundaries
// for datasets whose users' trajectories are stored contiguously. A row
// whose position is not a WGS84 coordinate (geo.Point.Valid: a NaN, a
// latitude past ±90° or a longitude past ±180°) is an error, as a bad
// timestamp is, and so is a timestamp outside the span an Instant holds.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	d := NewDataset()
	var cur *Trajectory
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read csv: %w", err)
		}
		line++
		if line == 1 && rec[0] == csvHeader[0] {
			continue // header
		}
		ts, err := time.Parse(time.RFC3339Nano, rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad timestamp %q: %w", line, rec[1], err)
		}
		if !InRange(ts) {
			return nil, fmt.Errorf("trace: csv line %d: timestamp out of range", line)
		}
		lat, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad latitude %q: %w", line, rec[2], err)
		}
		lon, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad longitude %q: %w", line, rec[3], err)
		}
		acc, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad accuracy %q: %w", line, rec[4], err)
		}
		pos := geoPoint(lat, lon)
		if !pos.Valid() {
			return nil, fmt.Errorf("trace: csv line %d: invalid position (lat %s, lon %s)", line, rec[2], rec[3])
		}
		if cur == nil || cur.User != rec[0] {
			cur = &Trajectory{User: rec[0]}
			d.Add(cur)
		}
		cur.Records = append(cur.Records, Record{
			Time:     InstantOf(ts),
			Pos:      pos,
			Accuracy: acc,
		})
	}
	return d, nil
}

// jsonRecord is the wire form of a Record: its time is written in UTC.
type jsonRecord struct {
	Time     time.Time `json:"time"`
	Lat      float64   `json:"lat"`
	Lon      float64   `json:"lon"`
	Accuracy float64   `json:"accuracy,omitempty"`
}

// jsonTrajectory is the wire form of a Trajectory.
type jsonTrajectory struct {
	User    string       `json:"user"`
	Records []jsonRecord `json:"records"`
}

// MarshalJSON implements json.Marshaler.
func (t *Trajectory) MarshalJSON() ([]byte, error) {
	jt := jsonTrajectory{User: t.User, Records: make([]jsonRecord, len(t.Records))}
	for i, r := range t.Records {
		jt.Records[i] = jsonRecord{Time: r.Time.Time(), Lat: r.Pos.Lat, Lon: r.Pos.Lon, Accuracy: r.Accuracy}
	}
	return json.Marshal(jt)
}

// UnmarshalJSON implements json.Unmarshaler. A time outside the span an
// Instant holds is an error.
func (t *Trajectory) UnmarshalJSON(data []byte) error {
	var jt jsonTrajectory
	if err := json.Unmarshal(data, &jt); err != nil {
		return fmt.Errorf("trace: unmarshal trajectory: %w", err)
	}
	recs := make([]Record, len(jt.Records))
	for i, r := range jt.Records {
		if !InRange(r.Time) {
			return fmt.Errorf("trace: unmarshal trajectory: record %d: timestamp out of range", i)
		}
		recs[i] = Record{Time: InstantOf(r.Time), Pos: geoPoint(r.Lat, r.Lon), Accuracy: r.Accuracy}
	}
	t.User, t.Records = jt.User, recs
	return nil
}

// WriteJSON writes the dataset as a JSON array of trajectories.
func WriteJSON(w io.Writer, d *Dataset) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(d.Trajectories); err != nil {
		return fmt.Errorf("trace: encode json: %w", err)
	}
	return nil
}

// ReadJSON parses a dataset from a JSON array of trajectories.
func ReadJSON(r io.Reader) (*Dataset, error) {
	d := NewDataset()
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d.Trajectories); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	return d, nil
}

// LoadCSVFile reads a dataset from a CSV file on disk.
func LoadCSVFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadCSV(f)
}

// SaveCSVFile writes a dataset to a CSV file on disk.
func SaveCSVFile(path string, d *Dataset) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: close %s: %w", path, cerr)
		}
	}()
	return WriteCSV(f, d)
}
