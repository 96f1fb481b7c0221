package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	exrquy "repro"
)

// answer is the reference result of one query text: the serialized
// sequence, and its top-level items sorted, for bag comparison.
type answer struct {
	XML   string   `json:"xml"`
	Items []string `json:"items"`
}

// oracle maps query text to its reference answer.
type oracle map[string]answer

// check compares a timed result with the reference. Ordered mode must
// match byte for byte; unordered mode (and queries whose order is
// implementation-dependent even when ordered, such as Q10) must match
// as a sorted bag of top-level items. items is called only when the bag
// comparison is needed.
func (o oracle) check(text, xml string, bag bool, items func() ([]string, error)) error {
	want, ok := o[text]
	if !ok {
		return fmt.Errorf("no reference answer for query")
	}
	if !bag {
		if xml != want.XML {
			return fmt.Errorf("result differs from reference (%d vs %d bytes)", len(xml), len(want.XML))
		}
		return nil
	}
	got, err := items()
	if err != nil {
		return fmt.Errorf("serialize items: %w", err)
	}
	sort.Strings(got)
	if len(got) != len(want.Items) {
		return fmt.Errorf("result has %d items, reference %d", len(got), len(want.Items))
	}
	for i := range got {
		if got[i] != want.Items[i] {
			return fmt.Errorf("result item bag differs from reference at item %d", i)
		}
	}
	return nil
}

// loadOracle returns the reference answers for every text the run
// executes. They are computed by Engine.Reference (the tree-walking
// interpreter) on an in-memory load of the same seeded corpus, in a
// child process so the interpreter's memory does not count in the run's
// peak RSS, and cached under .bench_build per seed and benchmark binary,
// since the interpreter needs tens of seconds for Q9 alone.
func loadOracle(root string, s spec, seed uint64, seconds int) (oracle, error) {
	path, err := oraclePath(root, s, seed)
	if err != nil {
		return nil, err
	}
	want := texts(s, seed, seconds)
	if o, err := readOracle(path); err == nil && o.covers(want) {
		return o, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-oracle", "-workload", s.name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("oracle process: %w", err)
	}
	o, err := readOracle(path)
	if err != nil {
		return nil, err
	}
	if !o.covers(want) {
		return nil, fmt.Errorf("oracle cache %s misses query texts", path)
	}
	return o, nil
}

func (o oracle) covers(want []string) bool {
	for _, t := range want {
		if _, ok := o[t]; !ok {
			return false
		}
	}
	return true
}

// oraclePath keys the cache by workload, seed and a digest of the
// benchmark binary, which embeds the corpus generator and the
// interpreter: any change to either starts a new cache.
func oraclePath(root string, s spec, seed uint64) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	tag := hex.EncodeToString(h.Sum(nil))[:16]
	return filepath.Join(root, ".bench_build", "oracle", fmt.Sprintf("%s-%d-%s.json", s.name, seed, tag)), nil
}

func readOracle(path string) (oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o oracle
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("read oracle cache %s: %w", path, err)
	}
	return o, nil
}

// buildOracle is the child process: it regenerates the corpus, answers
// every text the cache lacks with Engine.Reference (two at a time), and
// replaces the cache file atomically.
func buildOracle(root string, s spec, seed uint64, seconds int) error {
	path, err := oraclePath(root, s, seed)
	if err != nil {
		return err
	}
	o, err := readOracle(path)
	if err != nil {
		o = oracle{}
	}
	xml, err := corpus(s, seed)
	if err != nil {
		return err
	}
	eng := exrquy.New()
	if err := eng.LoadDocument(docName, bytes.NewReader(xml)); err != nil {
		return fmt.Errorf("load corpus: %w", err)
	}
	var todo []string
	for _, t := range texts(s, seed, seconds) {
		if _, ok := o[t]; !ok {
			todo = append(todo, t)
		}
	}
	var (
		mu   sync.Mutex
		errs []string
		wg   sync.WaitGroup
		next = make(chan string, len(todo)) // holds every pending text
	)
	for _, t := range todo {
		next <- t
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				a, err := reference(eng, t)
				mu.Lock()
				if err != nil {
					errs = append(errs, err.Error())
				} else {
					o[t] = a
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return fmt.Errorf("reference evaluation failed: %s", strings.Join(errs, "; "))
	}
	data, err := json.Marshal(o)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func reference(eng *exrquy.Engine, text string) (answer, error) {
	res, err := eng.Reference(text)
	if err != nil {
		return answer{}, fmt.Errorf("reference: %w", err)
	}
	xml, err := res.XML()
	if err != nil {
		return answer{}, fmt.Errorf("reference serialize: %w", err)
	}
	items, err := res.Items()
	if err != nil {
		return answer{}, fmt.Errorf("reference items: %w", err)
	}
	sort.Strings(items)
	return answer{XML: xml, Items: items}, nil
}
