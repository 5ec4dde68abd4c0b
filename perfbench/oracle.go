package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"regexp"
	"sort"
	"sync"

	"simsearch"
	"simsearch/internal/httpapi"
)

// tookRE matches the only field of a response that legitimately differs
// between two correct answers: its server-side timing.
var tookRE = regexp.MustCompile(`"took_us":-?[0-9]+`)

// stripTook zeroes took_us so that responses compare byte for byte.
func stripTook(b []byte) []byte { return tookRE.ReplaceAll(b, []byte(`"took_us":0`)) }

// encode is the server's own encoding of a payload: encoding/json through an
// Encoder, trailing newline included.
func encode(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // the payload types always encode
	}
	return buf.Bytes()
}

// matchJSON renders oracle matches the way the server does, echoing each
// string through str.
func matchJSON(ms []simsearch.Match, str func(int32) string) []httpapi.MatchJSON {
	out := make([]httpapi.MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = httpapi.MatchJSON{ID: m.ID, String: str(m.ID), Dist: m.Dist}
	}
	return out
}

// expectSearch is the exact /search body a correct server returns (with
// took_us zeroed).
func expectSearch(q string, k int, ms []simsearch.Match, str func(int32) string) []byte {
	return encode(httpapi.SearchResponse{Query: q, K: k, Matches: matchJSON(ms, str)})
}

// expectBatch is the exact /search/batch body a correct server returns.
func expectBatch(qs []simsearch.Query, per [][]simsearch.Match, str func(int32) string) []byte {
	resp := httpapi.BatchResponse{Results: make([]httpapi.BatchResult, len(qs))}
	for i, q := range qs {
		resp.Results[i] = httpapi.BatchResult{Query: q.Text, K: q.K, Matches: matchJSON(per[i], str)}
	}
	return encode(resp)
}

// sampleIndices draws m distinct indices from [0, n), sorted.
func sampleIndices(n, m int, seed int64) []int {
	if m > n {
		m = n
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)[:m]
	sort.Ints(idx)
	return idx
}

// sampled holds the recorded responses of the sampled operations.
type sampled struct {
	want map[int]bool
	mu   sync.Mutex
	body map[int][]byte
}

func newSampled(idx []int) *sampled {
	s := &sampled{want: make(map[int]bool, len(idx)), body: make(map[int][]byte, len(idx))}
	for _, i := range idx {
		s.want[i] = true
	}
	return s
}

// keep records body for operation i when i is sampled.
func (s *sampled) keep(i int, body []byte) {
	if s.want[i] {
		s.mu.Lock()
		s.body[i] = body
		s.mu.Unlock()
	}
}
