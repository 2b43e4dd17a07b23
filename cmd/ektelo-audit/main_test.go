package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestVerifierAgainstLiveServer drives the whole CLI flow against a
// real serve process: first run pins the key and head, later runs
// prove append-only growth, and a pin edited to disagree with the
// server (rewritten root, truncated size, swapped key) fails loudly.
func TestVerifierAgainstLiveServer(t *testing.T) {
	s := serve.New(serve.Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d, err := s.CreateDataset("census", "piecewise", 128, 5000, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("hb", 1); err != nil {
		t.Fatal(err)
	}

	state := filepath.Join(t.TempDir(), "audit.census.json")
	verify := func() (int, string, string) {
		var out, errb bytes.Buffer
		code := run([]string{"-server", ts.URL, "-dataset", "census", "-state", state}, &out, &errb)
		return code, out.String(), errb.String()
	}

	// First run: trust on first use, pin written atomically.
	code, out, errOut := verify()
	if code != 0 {
		t.Fatalf("first run exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "signed tree head verified") || !strings.Contains(out, "OK") {
		t.Fatalf("first run output: %s", out)
	}
	pinned, err := os.ReadFile(state)
	if err != nil {
		t.Fatalf("pin not written: %v", err)
	}
	var pin pinState
	if err := json.Unmarshal(pinned, &pin); err != nil {
		t.Fatal(err)
	}
	if pin.Dataset != "census" || pin.Size == 0 || pin.PublicKey == "" {
		t.Fatalf("pin %+v", pin)
	}

	// More charges, second run: consistency proven from the pin.
	if _, err := d.Measure("total", 0.5); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = verify()
	if code != 0 {
		t.Fatalf("second run exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "consistent extension") || !strings.Contains(out, "leaves proved included") {
		t.Fatalf("second run output: %s", out)
	}

	writePin := func(p pinState) {
		t.Helper()
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(state, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var good pinState
	data, _ := os.ReadFile(state)
	if err := json.Unmarshal(data, &good); err != nil {
		t.Fatal(err)
	}

	// Rewritten history: pin holds a different root at its size.
	bad := good
	bad.Root = strings.Repeat("ab", 32)
	writePin(bad)
	if code, _, errOut = verify(); code != 1 || !strings.Contains(errOut, "VERIFICATION FAILED") {
		t.Fatalf("rewritten-root pin: exit %d, stderr %s", code, errOut)
	}

	// Truncated tree: pin claims more leaves than the server serves.
	bad = good
	bad.Size = good.Size + 100
	writePin(bad)
	if code, _, errOut = verify(); code != 1 || !strings.Contains(errOut, "shrank") {
		t.Fatalf("truncation: exit %d, stderr %s", code, errOut)
	}

	// Swapped signing key: TOFU pin refuses the new identity.
	bad = good
	bad.PublicKey = strings.Repeat("cd", 32)
	writePin(bad)
	if code, _, errOut = verify(); code != 1 || !strings.Contains(errOut, "signing key changed") {
		t.Fatalf("key swap: exit %d, stderr %s", code, errOut)
	}

	// A failed run never advances the pin.
	after, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	var afterPin pinState
	if err := json.Unmarshal(after, &afterPin); err != nil {
		t.Fatal(err)
	}
	if afterPin.PublicKey != bad.PublicKey {
		t.Fatal("failed run rewrote the pin")
	}

	// Restore the good pin: verification recovers.
	writePin(good)
	if code, _, errOut = verify(); code != 0 {
		t.Fatalf("restored pin: exit %d, stderr %s", code, errOut)
	}
}

// TestVerifierUsage: flag errors are usage errors (exit 2), not
// verification failures.
func TestVerifierUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-server", "http://x"}, &out, &errb); code != 2 {
		t.Fatalf("missing -dataset: exit %d", code)
	}
	if !strings.Contains(errb.String(), "-dataset is required") {
		t.Fatalf("stderr: %s", errb.String())
	}
}

// TestSampleIndices pins the spot-check spread: deterministic,
// bounded, always covering the first and latest leaf.
func TestSampleIndices(t *testing.T) {
	if got := sampleIndices(0, 8); got != nil {
		t.Fatalf("empty tree sampled: %v", got)
	}
	if got := sampleIndices(3, 8); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("small tree: %v", got)
	}
	got := sampleIndices(1000, 8)
	if len(got) != 8 || got[0] != 0 || got[len(got)-1] != 999 {
		t.Fatalf("spread: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
}
