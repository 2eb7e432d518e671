package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"mapsynth/internal/apps"
	"mapsynth/internal/index"
	"mapsynth/internal/snapshot"
)

// serveDefaults mirrors the server's documented defaults for omitted
// request parameters.
var serveDefaults = apps.Defaults{MinCoverage: 0.8, MinEach: 2}

// Response shapes of the service's single-column endpoints, rebuilt here
// from apps.Session answers so the benchmark can check what the server
// sent.
type lookupView struct {
	Found        bool     `json:"found"`
	Key          string   `json:"key"`
	Value        string   `json:"value,omitempty"`
	Alternatives []string `json:"alternatives,omitempty"`
	MappingID    int      `json:"mapping_id,omitempty"`
	Support      int      `json:"support,omitempty"`
	Tables       int      `json:"tables,omitempty"`
	Domains      int      `json:"domains,omitempty"`
}

type filledCell struct {
	Row   int    `json:"row"`
	Value string `json:"value"`
}

type fillView struct {
	Found        bool         `json:"found"`
	MappingIndex int          `json:"mapping_index"`
	MappingID    int          `json:"mapping_id,omitempty"`
	Filled       []filledCell `json:"filled,omitempty"`
}

type correctView struct {
	Found        bool              `json:"found"`
	MappingIndex int               `json:"mapping_index"`
	MappingID    int               `json:"mapping_id,omitempty"`
	Corrections  []apps.Correction `json:"corrections,omitempty"`
}

type joinedRow struct {
	LeftRow  int `json:"left_row"`
	RightRow int `json:"right_row"`
}

type joinView struct {
	Found        bool        `json:"found"`
	MappingIndex int         `json:"mapping_index"`
	MappingID    int         `json:"mapping_id,omitempty"`
	Bridged      int         `json:"bridged"`
	Rows         []joinedRow `json:"rows,omitempty"`
}

// answer computes the response the service should send for a
// single-column request, through sess over ix.
func answer(ctx context.Context, sess *apps.Session, ix *index.MappingIndex, r request) (any, error) {
	id := func(i int) int {
		if i < 0 {
			return 0
		}
		return ix.Mapping(i).ID
	}
	switch r.Kind {
	case kLookup:
		res, err := sess.Lookup(ctx, []apps.LookupQuery{{Key: r.Key}})
		if err != nil {
			return nil, err
		}
		l := res[0]
		if !l.Found {
			return lookupView{Key: r.Key}, nil
		}
		return lookupView{true, r.Key, l.Value, l.Alternatives, l.MappingID, l.Support, l.Tables, l.Domains}, nil
	case kAutoFill:
		ex := make([]apps.Example, len(r.Fill.Examples))
		for i, e := range r.Fill.Examples {
			ex[i] = apps.Example{Left: e.Left, Right: e.Right}
		}
		res, err := sess.AutoFill(ctx, []apps.AutoFillQuery{{Column: r.Fill.Column, Examples: ex, MinCoverage: r.Fill.MinCoverage}})
		if err != nil {
			return nil, err
		}
		f := res[0]
		v := fillView{Found: f.MappingIndex >= 0, MappingIndex: f.MappingIndex, MappingID: id(f.MappingIndex)}
		if f.MappingIndex >= 0 {
			rows := make([]int, 0, len(f.Filled))
			for row := range f.Filled {
				rows = append(rows, row)
			}
			sort.Ints(rows)
			for _, row := range rows {
				v.Filled = append(v.Filled, filledCell{row, f.Filled[row]})
			}
		}
		return v, nil
	case kAutoCorrect:
		res, err := sess.AutoCorrect(ctx, []apps.AutoCorrectQuery{{Column: r.Correct.Column, MinEach: r.Correct.MinEach, MinCoverage: r.Correct.MinCoverage}})
		if err != nil {
			return nil, err
		}
		c := res[0]
		return correctView{c.MappingIndex >= 0, c.MappingIndex, id(c.MappingIndex), c.Corrections}, nil
	case kAutoJoin:
		res, err := sess.AutoJoin(ctx, []apps.AutoJoinQuery{{KeysA: r.Join.KeysA, KeysB: r.Join.KeysB, MinCoverage: r.Join.MinCoverage}})
		if err != nil {
			return nil, err
		}
		j := res[0]
		v := joinView{Found: j.MappingIndex >= 0, MappingIndex: j.MappingIndex, MappingID: id(j.MappingIndex), Bridged: j.Bridged}
		if j.MappingIndex >= 0 {
			for _, row := range j.Rows {
				v.Rows = append(v.Rows, joinedRow{row.LeftRow, row.RightRow})
			}
		}
		return v, nil
	}
	return nil, fmt.Errorf("no single-column answer for %s", r.Kind)
}

// sameJSON reports whether got (a response body) and want (a view)
// encode the same JSON value.
func sameJSON(got []byte, want any) (bool, error) {
	wb, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return false, err
	}
	if err := json.Unmarshal(wb, &w); err != nil {
		return false, err
	}
	return reflect.DeepEqual(g, w), nil
}

// checkResponses compares every sampled single-column response of a run
// with the in-process answer over the same snapshot. It returns how many
// were checked and the indexes of those that differ.
func checkResponses(sess *apps.Session, ix *index.MappingIndex, ops []op, bodies map[int]string) (checked int, bad []int, err error) {
	for i, body := range bodies {
		if ops[i].Req.Kind > kAutoJoin {
			continue
		}
		want, err := answer(context.Background(), sess, ix, ops[i].Req)
		if err != nil {
			return checked, bad, err
		}
		ok, err := sameJSON([]byte(body), want)
		if err != nil {
			return checked, bad, err
		}
		checked++
		if !ok {
			bad = append(bad, i)
		}
	}
	sort.Ints(bad)
	return checked, bad, nil
}

// openSession opens a v2 snapshot and the session the server would answer
// from over it. The caller closes the handle.
func openSession(path string) (*snapshot.Handle, *index.MappingIndex, *apps.Session, error) {
	h, err := snapshot.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	ix := index.FromSource(h)
	return h, ix, apps.NewSession(ix, apps.WithDefaults(serveDefaults)), nil
}
