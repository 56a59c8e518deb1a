package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/metrics"
	"repro/internal/model"
)

// Outcome is the checked summary of a sequence of opResults.
type Outcome struct {
	Attempted, Failed int
	// Lat holds round-trip times in ms per request kind.
	Lat map[string][]float64
	// Acked counts readings the server acknowledged as accepted.
	Acked int
	// RespBytes totals the response payloads per request kind.
	RespBytes map[string]int
	// KL and Hit are the per-query answer-quality samples.
	KL, Hit []float64
	// Digest hashes every response body in schedule order.
	Digest string
	// Problems lists every failed check (empty: all passed).
	Problems []string
}

func (o *Outcome) fail(format string, args ...any) {
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

type ingestResp struct {
	Received int    `json:"received"`
	Accepted int    `json:"accepted"`
	Dropped  int    `json:"dropped"`
	Reason   string `json:"reason"`
}

type objProb struct {
	Object model.ObjectID `json:"object"`
	P      float64        `json:"p"`
}

type queryResp struct {
	Result    []objProb `json:"result"`
	Occupancy []struct {
		Room string  `json:"room"`
		P    float64 `json:"p"`
	} `json:"occupancy"`
	Partial bool `json:"partial"`
}

// probTolerance admits the rounding of a probability summed over anchor
// points: a mass of exactly 1 can land an ulp or two above it.
const probTolerance = 1e-9

// Check validates every response and computes answer quality and the
// answer digest. A request fails when it errs in transport, answers non-2xx
// (429 sheds included), is malformed, or is marked "partial".
func Check(rs []opResult) *Outcome {
	o := &Outcome{Lat: map[string][]float64{}, RespBytes: map[string]int{}}
	h := sha256.New()
	var lenBuf [8]byte
	for i := range rs {
		r := &rs[i]
		o.Attempted++
		o.Lat[r.Kind] = append(o.Lat[r.Kind], ms(r.Dur))
		o.RespBytes[r.Kind] += len(r.Body)
		h.Write([]byte(r.Path))
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(r.Body)))
		h.Write(lenBuf[:])
		h.Write(r.Body)
		if r.Err != nil || r.Status < 200 || r.Status > 299 {
			o.Failed++
			o.fail("%s %s: status %d err %v: %.200s", r.Kind, r.Path, r.Status, r.Err, r.Body)
			continue
		}
		if err := o.checkBody(r); err != nil {
			o.Failed++
			o.fail("%s %s: %v", r.Kind, r.Path, err)
		}
	}
	o.Digest = hex.EncodeToString(h.Sum(nil))
	return o
}

func (o *Outcome) checkBody(r *opResult) error {
	if r.Kind == kindIngest {
		var ir ingestResp
		if err := json.Unmarshal(r.Body, &ir); err != nil {
			return fmt.Errorf("malformed: %v", err)
		}
		if ir.Received != r.Readings || ir.Accepted != r.Readings || ir.Dropped != 0 {
			return fmt.Errorf("sent %d readings: received %d accepted %d dropped %d (%s)",
				r.Readings, ir.Received, ir.Accepted, ir.Dropped, ir.Reason)
		}
		o.Acked += ir.Accepted
		return nil
	}
	var qr queryResp
	if err := json.Unmarshal(r.Body, &qr); err != nil {
		return fmt.Errorf("malformed: %v", err)
	}
	if qr.Partial {
		return fmt.Errorf("partial answer")
	}
	switch r.Kind {
	case kindOccupancy:
		// An empty list is a valid answer before any object is known.
		if qr.Occupancy == nil && !bytes.Contains(r.Body, []byte(`"occupancy":[]`)) {
			return fmt.Errorf("no occupancy list")
		}
		for _, e := range qr.Occupancy {
			if !(e.P >= 0) || math.IsInf(e.P, 0) {
				return fmt.Errorf("room %q expected count %v", e.Room, e.P)
			}
		}
		return nil
	case kindRange, kindKNN:
		ans := make(model.ResultSet, len(qr.Result))
		for _, e := range qr.Result {
			if !(e.P >= 0 && e.P <= 1+probTolerance) {
				return fmt.Errorf("object %d has p=%v outside [0,1]", e.Object, e.P)
			}
			ans[e.Object] = e.P
		}
		if r.Kind == kindRange {
			if len(r.Q.Truth) > 0 {
				truth := make(model.ResultSet, len(r.Q.Truth))
				for _, obj := range r.Q.Truth {
					truth[obj] = 1
				}
				o.KL = append(o.KL, metrics.KLDivergence(truth, ans, metrics.DefaultEpsilon))
			}
			return nil
		}
		// The answer arrives sorted by descending probability (ties by
		// object): its first k entries are the top-k.
		top := make([]model.ObjectID, 0, r.Q.K)
		for _, e := range qr.Result {
			if len(top) == r.Q.K {
				break
			}
			top = append(top, e.Object)
		}
		o.Hit = append(o.Hit, metrics.HitRate(top, r.Q.Truth))
		return nil
	}
	return fmt.Errorf("unknown kind %q", r.Kind)
}

// fileDigest is the hex SHA-256 of a file's contents.
func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// queries counts the answered query requests.
func (o *Outcome) queries() int {
	return len(o.Lat[kindRange]) + len(o.Lat[kindKNN]) + len(o.Lat[kindOccupancy])
}
