package tables

import (
	"bytes"
	"testing"

	"costdist/internal/pins"
)

// paperTablesFile holds, byte for byte, what
//
//	go run ./cmd/benchtables -table 1 -chips 1,2 -scale 0.005 -seed 7
//
// prints, followed by the same command's -table 2 and -table ablation.
const paperTablesFile = "../../testdata/paper_tables.txt"

// The paper's results at HEAD are committed: Tables I and II and the §III
// ablation on chips c1 and c2 at scale 0.005. The harness is
// deterministic at any thread count, so any change that moves a table
// shows up here, and in review as a diff of the committed file.
// Regenerate with
//
//	PINS_UPDATE=1 go test ./...
func TestPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("routes two chips")
	}
	cfg := Config{Scale: 0.005, Chips: []int{0, 1}, Waves: 3, Seed: 7}
	var got bytes.Buffer
	for _, table := range []string{"1", "2", "ablation"} {
		if err := Print(&got, cfg, table); err != nil {
			t.Fatal(err)
		}
	}
	want := pins.File(t, paperTablesFile, got.Bytes())
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the paper tables moved; if intended, regenerate with PINS_UPDATE=1 and review the diff\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
