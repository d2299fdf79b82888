package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestVerdictGolden pins the verdict JSON of the CI chaos smoke
// invocations across commits. Each digest is the sha256 of what
// `chaos -scenario S -seed N -nodes N -ticks T [-break-failsafe-floor]`
// prints (indented JSON plus a trailing newline). The determinism tests
// only compare runs of one build against each other; this test catches
// a semantic drift of the control law, the harness, or the manager
// between builds. A digest may change only with a deliberate change of
// simulated behaviour, and the commit that changes it says why.
func TestVerdictGolden(t *testing.T) {
	cases := []struct {
		name          string
		scenario      string
		seed          int64
		nodes, ticks  int
		breakFailSafe bool
		wantPass      bool
		wantSHA256    string
	}{
		{"mixed", "mixed", 7, 6, 1500, false, true,
			"078adce91d1e37e87c544e73b720de4dae7c9d5c5b1c5912a0b79f830a15929d"},
		{"sensor-storm", "sensor-storm", 3, 5, 1200, false, true,
			"15ccfb4d2cfaced240f8dd5ed4455f7746fe1893892c85855207d0d1c1d3f98e"},
		{"sensor-storm-broken-floor", "sensor-storm", 3, 5, 1200, true, false,
			"6a141cfafa8a527f948635871a365f40db8795a57ab248ab667fe04b1aff7c4a"},
		{"shard-handoff", "shard-handoff", 7, 12, 1200, false, true,
			"0496dd8d7f1069b28836611954beb58c2015cc062b39d65c9677a9f4ec609f60"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := Build(c.scenario, c.seed, c.ticks, c.nodes)
			if err != nil {
				t.Fatalf("building scenario: %v", err)
			}
			s.BreakFailSafeFloor = c.breakFailSafe
			v, err := Run(s)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if v.Pass != c.wantPass {
				t.Fatalf("pass = %v, want %v", v.Pass, c.wantPass)
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatalf("encoding verdict: %v", err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.wantSHA256 {
				t.Fatalf("verdict sha256 = %s, want %s; verdict:\n%s", got, c.wantSHA256, buf.Bytes())
			}
		})
	}
}
