package pins

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestUpdateWritesWhatCompareReads: under PINS_UPDATE, File creates the
// file (and its directory); with the switch off it reads back exactly the
// bytes written, whatever the test now computes.
func TestUpdateWritesWhatCompareReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "testdata", "pin.json")
	type entry struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	pinned := []entry{{"a", 0.1}, {"b", 1e-300}}

	t.Setenv(updateVar, "1")
	var back []entry
	JSON(t, path, pinned, &back)
	if !reflect.DeepEqual(back, pinned) {
		t.Fatalf("update mode decoded %v, want %v", back, pinned)
	}
	written, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	written = append(written, '\n')

	t.Setenv(updateVar, "")
	if got := File(t, path, []byte("moved\n")); !bytes.Equal(got, written) {
		t.Fatalf("compare mode read %q, want the %q written", got, written)
	}
}

// fatalRecorder stands in for a test: Fatalf records its message and ends
// the calling goroutine, as testing.T's does.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// TestMissingFileNamesTheSwitch: in compare mode a pin that is not there
// fails with the command that creates it.
func TestMissingFileNamesTheSwitch(t *testing.T) {
	t.Setenv(updateVar, "")
	path := filepath.Join(t.TempDir(), "missing.txt")
	r := &fatalRecorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		File(r, path, []byte("x\n"))
	}()
	<-done
	if !strings.Contains(r.msg, updateVar+"=1") || !strings.Contains(r.msg, path) {
		t.Fatalf("missing pin reported as %q, want it to name %s and %s=1", r.msg, path, updateVar)
	}
}
