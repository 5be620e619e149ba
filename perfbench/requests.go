package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// request is one query the load process sends, with what its answer
// must echo.
type request struct {
	path  string // /v1/score, /v1/source or /v1/batch
	alg   string // wire name: sampling_v2, twophase, srsp, indexed
	u, v  int
	cands []int
	pairs [][2]int
	body  []byte
}

// echoName is the algorithm name each wire name is echoed as.
var echoName = map[string]string{
	"sampling_v2": "Sampling-v2",
	"twophase":    "SR-TS",
	"srsp":        "SR-SP",
	"indexed":     "indexed",
}

func scoreReq(alg string, u, v int) *request {
	r := &request{path: "/v1/score", alg: alg, u: u, v: v}
	r.body = mustJSON(map[string]any{"alg": alg, "u": u, "v": v})
	return r
}

func sourceReq(alg string, u int, cands []int) *request {
	r := &request{path: "/v1/source", alg: alg, u: u, cands: cands}
	r.body = mustJSON(map[string]any{"alg": alg, "u": u, "candidates": cands})
	return r
}

func batchReq(alg string, pairs [][2]int) *request {
	r := &request{path: "/v1/batch", alg: alg, pairs: pairs}
	r.body = mustJSON(map[string]any{"alg": alg, "pairs": pairs})
	return r
}

// subscribeQuery is the GET query string of the /v1/subscribe stream
// standing on the same source query as r.
func (r *request) subscribeQuery() string {
	cs := make([]string, len(r.cands))
	for i, c := range r.cands {
		cs[i] = strconv.Itoa(c)
	}
	return fmt.Sprintf("shape=source&alg=%s&u=%d&candidates=%s&staleness_ms=0", r.alg, r.u, strings.Join(cs, ","))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of ints and strings are encoded here
	}
	return b
}

type scoreBody struct {
	Alg   string   `json:"alg"`
	U     int      `json:"u"`
	V     int      `json:"v"`
	Score *float64 `json:"score"`
}

type sourceBody struct {
	Alg        string    `json:"alg"`
	U          int       `json:"u"`
	Candidates []int     `json:"candidates"`
	Scores     []float64 `json:"scores"`
}

type batchBody struct {
	Alg     string `json:"alg"`
	Results []struct {
		U     int      `json:"u"`
		V     int      `json:"v"`
		Score *float64 `json:"score"`
		Error string   `json:"error"`
	} `json:"results"`
}

func checkScore(s float64) error {
	if math.IsNaN(s) || s < 0 || s > 1 {
		return fmt.Errorf("score %v outside [0,1]", s)
	}
	return nil
}

// validate checks a response against its request: status, echoed
// fields, score range, and list lengths. It returns the served scores
// in request order.
func validate(r *request, status int, body []byte) ([]float64, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", r.path, status, body)
	}
	want := echoName[r.alg]
	switch r.path {
	case "/v1/score":
		var b scoreBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, fmt.Errorf("score: %w", err)
		}
		if b.Alg != want || b.U != r.u || b.V != r.v || b.Score == nil {
			return nil, fmt.Errorf("score: echo alg=%q u=%d v=%d, want %q %d %d", b.Alg, b.U, b.V, want, r.u, r.v)
		}
		return []float64{*b.Score}, checkScore(*b.Score)
	case "/v1/source":
		var b sourceBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, fmt.Errorf("source: %w", err)
		}
		if b.Alg != want || b.U != r.u {
			return nil, fmt.Errorf("source: echo alg=%q u=%d, want %q %d", b.Alg, b.U, want, r.u)
		}
		if len(b.Candidates) != len(r.cands) || len(b.Scores) != len(r.cands) {
			return nil, fmt.Errorf("source: %d candidates / %d scores, want %d", len(b.Candidates), len(b.Scores), len(r.cands))
		}
		for i, c := range r.cands {
			if b.Candidates[i] != c {
				return nil, fmt.Errorf("source: candidate %d echoed as %d", c, b.Candidates[i])
			}
			if err := checkScore(b.Scores[i]); err != nil {
				return nil, err
			}
		}
		return b.Scores, nil
	case "/v1/batch":
		var b batchBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, fmt.Errorf("batch: %w", err)
		}
		if b.Alg != want || len(b.Results) != len(r.pairs) {
			return nil, fmt.Errorf("batch: echo alg=%q with %d results, want %q with %d", b.Alg, len(b.Results), want, len(r.pairs))
		}
		out := make([]float64, len(r.pairs))
		for i, p := range r.pairs {
			res := b.Results[i]
			if res.U != p[0] || res.V != p[1] || res.Error != "" || res.Score == nil {
				return nil, fmt.Errorf("batch: result %d = (%d,%d) error %q, want (%d,%d)", i, res.U, res.V, res.Error, p[0], p[1])
			}
			if err := checkScore(*res.Score); err != nil {
				return nil, err
			}
			out[i] = *res.Score
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown path %s", r.path)
}
