package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	exrquy "repro"
	"repro/internal/xmark"
)

// TestExactCountsRepeat runs one pass of each in-process workload twice
// on one seed, each time on freshly set-up engines, and requires the
// plan-shape and executor counts to repeat exactly: these are the
// counts a later change may cite as evidence without a noise band.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up xmark-scan at factor 0.2")
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	exact := []string{
		"compile.operators", "opt.operators", "opt.rownum_ops", "opt.rowid_ops", "vm.instructions",
		"engine.rownum_rows", "engine.rowid_rows", "engine.cells",
	}
	for _, name := range []string{"xmark-join", "xmark-scan"} {
		s, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xml, err := corpus(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		first, second := countsOnce(t, root, s, xml), countsOnce(t, root, s, xml)
		for _, k := range exact {
			if first[k] != second[k] {
				t.Errorf("%s: %s = %v, then %v", name, k, first[k], second[k])
			}
			if first[k] == 0 && k != "opt.rowid_ops" && k != "engine.rowid_rows" {
				t.Errorf("%s: %s is 0", name, k)
			}
		}
	}
}

func countsOnce(t *testing.T, root string, s spec, xml []byte) map[string]float64 {
	t.Helper()
	rec := newRecorder()
	env, err := setupInproc(root, s, xml, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	st := runInproc(env, nil, 3, loopOpts{passes: 1, rec: rec})
	if st.failed > 0 {
		t.Fatalf("%s: %v", s.name, st.problems)
	}
	vals := map[string]float64{}
	planShape(env.queries, vals)
	executor(&st.layer, vals)
	return vals
}

// TestServedMixTraced drives a short traced served-mix window, whose
// senders, uploader and recorder run on several goroutines at once (run
// it under -race), and requires every response to match the reference.
func TestServedMixTraced(t *testing.T) {
	s, err := specByName("served-mix")
	if err != nil {
		t.Fatal(err)
	}
	xml, err := corpus(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	jobs := mixSchedule(5, 2*time.Second, xmark.CountsFor(s.factor).Persons)
	ref := exrquy.New()
	if err := ref.LoadDocument(docName, bytes.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	orc := oracle{}
	for _, text := range mixTexts(jobs) {
		if orc[text], err = reference(ref, text); err != nil {
			t.Fatal(err)
		}
	}
	sv, err := setupServed(s, xml)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.close()
	rec := newRecorder()
	st := runMix(sv, jobs, orc, rec)
	if st.failed > 0 || len(st.put) == 0 || len(st.lat) == 0 {
		t.Fatalf("%d of %d failed (%v), %d uploads, %d reads", st.failed, st.attempted, st.problems, len(st.put), len(st.lat))
	}
	if rec.meanMS("client/http.roundtrip") <= 0 {
		t.Error("no round-trip spans recorded")
	}
}
