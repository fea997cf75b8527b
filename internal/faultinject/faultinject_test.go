package faultinject

import (
	"errors"
	"net"
	"testing"

	"eswitch/internal/openflow"
)

func TestRuleScheduleAfterCount(t *testing.T) {
	in := New(1)
	boom := errors.New("boom")
	in.Set("p", Rule{After: 2, Count: 3, Err: boom})
	var fired int
	for i := 0; i < 10; i++ {
		if err := in.hit("p"); err != nil {
			if err != boom {
				t.Fatalf("hit %d returned %v", i, err)
			}
			if i < 2 {
				t.Fatalf("fired during the warm-up window (hit %d)", i)
			}
			fired++
		}
	}
	if fired != 3 || in.Fired("p") != 3 {
		t.Fatalf("fired %d times (counter %d), want 3", fired, in.Fired("p"))
	}
	in.Clear("p")
	if err := in.hit("p"); err != nil {
		t.Fatalf("cleared point still fires: %v", err)
	}
}

func TestProbabilisticRuleIsSeedDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(seed)
		in.Set("p", Rule{Prob: 0.5, Err: errors.New("x")})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.hit("p") != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at evaluation %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-draw patterns")
	}
}

func TestConnWritePointByMessageType(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	in := New(0)
	// Black-hole type-2 (EchoRequest) writes only.
	in.Set("conn.write.2", Rule{Drop: true})
	fc := Conn(client, in)

	done := make(chan []byte, 2)
	go func() {
		for i := 0; i < 1; i++ {
			buf := make([]byte, 8)
			n, err := server.Read(buf)
			if err != nil {
				close(done)
				return
			}
			done <- buf[:n]
		}
		close(done)
	}()

	echo := []byte{0x04, 2, 0, 8, 0, 0, 0, 1}
	if n, err := fc.Write(echo); err != nil || n != len(echo) {
		t.Fatalf("black-holed write must claim success, got n=%d err=%v", n, err)
	}
	hello := []byte{0x04, 0, 0, 8, 0, 0, 0, 2}
	if _, err := fc.Write(hello); err != nil {
		t.Fatal(err)
	}
	got, ok := <-done
	if !ok || got[1] != 0 {
		t.Fatalf("peer received %v — the echo should have been swallowed, the hello delivered", got)
	}
	if in.Fired("conn.write.2") != 1 {
		t.Fatalf("type point fired %d times, want 1", in.Fired("conn.write.2"))
	}
}

func TestConnReadDrop(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	in := New(0)
	in.Set("conn.read", Rule{Drop: true})
	fc := Conn(client, in)
	if _, err := fc.Read(make([]byte, 8)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("dropped read returned %v, want net.ErrClosed", err)
	}
}

type recordingProgrammer struct{ adds, dels int }

func (r *recordingProgrammer) AddFlow(openflow.TableID, *openflow.FlowEntry) error {
	r.adds++
	return nil
}

func (r *recordingProgrammer) DeleteFlow(openflow.TableID, *openflow.Match, int) (int, error) {
	r.dels++
	return 1, nil
}

func TestWrapProgrammerGatesAddFlow(t *testing.T) {
	rec := &recordingProgrammer{}
	in := New(0)
	boom := errors.New("table full")
	in.Set("flowmod.add", Rule{Count: 1, Err: boom})
	p := WrapProgrammer(rec, in)

	if err := p.AddFlow(0, &openflow.FlowEntry{}); err != boom {
		t.Fatalf("first AddFlow returned %v, want the injected error", err)
	}
	if rec.adds != 0 {
		t.Fatal("rejected AddFlow reached the datapath")
	}
	if err := p.AddFlow(0, &openflow.FlowEntry{}); err != nil {
		t.Fatal(err)
	}
	if n, err := p.DeleteFlow(0, nil, 0); err != nil || n != 1 {
		t.Fatalf("DeleteFlow passthrough broken: %d, %v", n, err)
	}
	if rec.adds != 1 || rec.dels != 1 {
		t.Fatalf("programmer saw adds=%d dels=%d, want 1/1", rec.adds, rec.dels)
	}
}
