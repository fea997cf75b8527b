package dpdk

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(8)
	if r.Capacity() < 7 {
		t.Fatalf("capacity %d", r.Capacity())
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("empty ring must not dequeue")
	}
	for i := 0; i < r.Capacity(); i++ {
		if !r.Enqueue([]byte{byte(i)}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.Enqueue([]byte{0xff}) {
		t.Fatal("full ring must reject enqueue")
	}
	for i := 0; i < r.Capacity(); i++ {
		f, ok := r.Dequeue()
		if !ok || f[0] != byte(i) {
			t.Fatalf("dequeue %d: %v %v", i, f, ok)
		}
	}
}

func TestRingFIFOProperty(t *testing.T) {
	f := func(values []byte) bool {
		r := NewRing(len(values) + 1)
		for _, v := range values {
			if !r.Enqueue([]byte{v}) {
				return false
			}
		}
		for _, v := range values {
			got, ok := r.Dequeue()
			if !ok || got[0] != v {
				return false
			}
		}
		_, ok := r.Dequeue()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstOperations(t *testing.T) {
	r := NewRing(64)
	in := make([][]byte, 10)
	for i := range in {
		in[i] = []byte{byte(i)}
	}
	if n := r.EnqueueBurst(in); n != 10 {
		t.Fatalf("enqueue burst %d", n)
	}
	out := make([][]byte, 32)
	if n := r.DequeueBurst(out); n != 10 {
		t.Fatalf("dequeue burst %d", n)
	}
	if out[9][0] != 9 {
		t.Fatalf("burst order broken: %v", out[9])
	}
}

func TestPortCounters(t *testing.T) {
	p := NewPortWithConfig(PortConfig{ID: 1, RingSize: 4, Queues: 1})
	if !p.InjectOn(AutoQueue, []byte{1}) || !p.InjectOn(AutoQueue, []byte{2}) || !p.InjectOn(AutoQueue, []byte{3}) {
		t.Fatal("inject failed")
	}
	// Ring of size 4 has capacity 3.
	if p.InjectOn(AutoQueue, []byte{4}) {
		t.Fatal("inject should fail when the RX ring is full")
	}
	st := p.Stats()
	if st.RxPackets != 3 || st.RxDrops != 1 {
		t.Fatalf("rx stats %+v", st)
	}
	if !p.TransmitSlow([]byte{9}) {
		t.Fatal("slow-path transmit refused")
	}
	if p.DrainTx() != 1 {
		t.Fatal("drain")
	}
	if p.Stats().TxPackets != 1 {
		t.Fatalf("tx stats %+v", p.Stats())
	}
}

// echoDatapath forwards every packet to port 2.
func echoDatapath(p *pkt.Packet, v *openflow.Verdict) {
	v.Reset()
	v.OutPorts = append(v.OutPorts, 2)
}

func dropDatapath(p *pkt.Packet, v *openflow.Verdict) {
	v.Reset()
	v.Dropped = true
}

func TestSwitchPollOnce(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 4, RingSize: 1024, Queues: DefaultQueues})
	p1, err := sw.Port(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Port(0); err == nil {
		t.Fatal("port 0 must not exist")
	}
	if _, err := sw.Port(9); err == nil {
		t.Fatal("port 9 must not exist")
	}
	frame := make([]byte, pkt.MinPacketLen)
	for i := 0; i < 100; i++ {
		p1.InjectOn(AutoQueue, frame)
	}
	processed := 0
	for processed < 100 {
		n := sw.PollOnce(nil)
		if n == 0 {
			break
		}
		processed += n
	}
	if processed != 100 {
		t.Fatalf("processed %d", processed)
	}
	st := sw.Stats()
	if st.Processed != 100 || st.Forwarded != 100 {
		t.Fatalf("switch stats %+v", st)
	}
	p2, _ := sw.Port(2)
	if p2.Stats().TxPackets != 100 {
		t.Fatalf("port 2 tx %+v", p2.Stats())
	}
}

func TestSwitchDropAccounting(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(dropDatapath), SwitchConfig{NumPorts: 2, RingSize: 64, Queues: DefaultQueues})
	p1, _ := sw.Port(1)
	for i := 0; i < 10; i++ {
		p1.InjectOn(AutoQueue, make([]byte, 60))
	}
	sw.PollOnce(nil)
	if st := sw.Stats(); st.Dropped != 10 || st.Forwarded != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRunWorkersParallel(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 4, RingSize: 4096, Queues: DefaultQueues})
	stop := sw.RunWorkers(2)
	defer stop()
	frame := make([]byte, 60)
	const per = 2000
	drainAll := func() {
		for portID := uint32(1); portID <= 4; portID++ {
			port, _ := sw.Port(portID)
			port.DrainTx()
		}
	}
	for portID := uint32(1); portID <= 4; portID++ {
		port, _ := sw.Port(portID)
		for i := 0; i < per; i++ {
			for !port.InjectOn(AutoQueue, frame) {
				drainAll()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	// Wait for the workers to drain everything.
	deadline := time.Now().Add(30 * time.Second)
	for sw.Stats().Processed < 4*per && time.Now().Before(deadline) {
		drainAll()
		time.Sleep(time.Millisecond)
	}
	if got := sw.Stats().Processed; got < 4*per {
		t.Fatalf("workers processed %d of %d", got, 4*per)
	}
}

// BenchmarkRing times the operation the worker path uses: an
// EnqueueBurst/DequeueBurst round trip of DefaultBurst frames, reported per
// frame.
func BenchmarkRing(b *testing.B) {
	r := NewRing(1024)
	in := make([][]byte, DefaultBurst)
	for i := range in {
		in[i] = make([]byte, 60)
	}
	out := make([][]byte, DefaultBurst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EnqueueBurst(in)
		r.DequeueBurst(out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultBurst), "ns/frame")
}

// TestRingConcurrentBurst runs one producer and one consumer goroutine
// against a small ring in cycling burst sizes and asserts every sequence
// number arrives exactly once and in order across many wraparounds.
func TestRingConcurrentBurst(t *testing.T) {
	const frames = 100_000
	r := NewRing(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		in := make([][]byte, 33)
		seq := 0
		for size := 1; seq < frames; size = size%33 + 1 {
			batch := in[:min(size, frames-seq)]
			for i := range batch {
				batch[i] = []byte{byte(seq + i), byte((seq + i) >> 8), byte((seq + i) >> 16)}
			}
			for len(batch) > 0 {
				n := r.EnqueueBurst(batch)
				batch = batch[n:]
				seq += n
				if n == 0 {
					runtime.Gosched()
				}
			}
		}
	}()
	out := make([][]byte, 40)
	want := 0
	for size := 1; want < frames; size = size%40 + 1 {
		n := r.DequeueBurst(out[:size])
		if n == 0 {
			runtime.Gosched()
		}
		for _, f := range out[:n] {
			if got := int(f[0]) | int(f[1])<<8 | int(f[2])<<16; got != want {
				t.Fatalf("got sequence %d, want %d", got, want)
			}
			want++
		}
	}
	<-done
	if n := r.Len(); n != 0 {
		t.Fatalf("%d frames left after the consumer saw all %d", n, frames)
	}
}

// TestRingWraparoundBurst exercises EnqueueBurst/DequeueBurst across many
// head/tail wraps of a small ring, asserting content and order survive the
// index wraparound.
func TestRingWraparoundBurst(t *testing.T) {
	r := NewRing(8) // 8 slots, capacity 7
	in := make([][]byte, 5)
	out := make([][]byte, 8)
	seq := byte(0)
	for round := 0; round < 100; round++ {
		for i := range in {
			in[i] = []byte{seq}
			seq++
		}
		if n := r.EnqueueBurst(in); n != len(in) {
			t.Fatalf("round %d: enqueued %d of %d", round, n, len(in))
		}
		if n := r.DequeueBurst(out); n != len(in) {
			t.Fatalf("round %d: dequeued %d of %d", round, n, len(in))
		}
		for i := 0; i < len(in); i++ {
			if out[i][0] != in[i][0] {
				t.Fatalf("round %d slot %d: got %d want %d", round, i, out[i][0], in[i][0])
			}
		}
	}
	// Partial burst against a nearly-full ring: exactly the free space fits.
	for i := 0; i < r.Capacity()-2; i++ {
		r.Enqueue([]byte{0xaa})
	}
	if n := r.EnqueueBurst(in); n != 2 {
		t.Fatalf("partial enqueue burst: got %d want 2", n)
	}
	if r.Len() != r.Capacity() {
		t.Fatalf("ring should be full, len %d", r.Len())
	}
	// A full ring accepts nothing and keeps its backlog.
	if n := r.EnqueueBurst(in); n != 0 || r.Len() != r.Capacity() {
		t.Fatalf("enqueue burst on a full ring: got %d, len %d", n, r.Len())
	}
	// A zero-length burst is a no-op on both sides.
	if n := r.EnqueueBurst(nil); n != 0 || r.Len() != r.Capacity() {
		t.Fatalf("zero-length enqueue burst: got %d, len %d", n, r.Len())
	}
	if n := r.DequeueBurst(out[:0]); n != 0 || r.Len() != r.Capacity() {
		t.Fatalf("zero-length dequeue burst: got %d, len %d", n, r.Len())
	}
	// A buffer shorter than the backlog is filled; the rest stays queued in
	// order: five 0xaa fillers, then in[0] and in[1].
	if n := r.DequeueBurst(out[:3]); n != 3 || r.Len() != r.Capacity()-3 {
		t.Fatalf("short dequeue burst: got %d, len %d", n, r.Len())
	}
	if n := r.DequeueBurst(out); n != r.Capacity()-3 {
		t.Fatalf("dequeue of the rest: got %d want %d", n, r.Capacity()-3)
	}
	if out[1][0] != 0xaa || out[2][0] != in[0][0] || out[3][0] != in[1][0] {
		t.Fatalf("short dequeue broke order: %v %v %v", out[1], out[2], out[3])
	}
	// An empty ring yields nothing, and a later Enqueue still works.
	if n := r.DequeueBurst(out); n != 0 {
		t.Fatalf("dequeue burst on an empty ring: got %d", n)
	}
	if !r.Enqueue([]byte{0x55}) || r.Len() != 1 {
		t.Fatalf("enqueue after an empty dequeue burst: len %d", r.Len())
	}
}

// TestTxFlushOrdering asserts frames leave a TX queue in receive order when
// the worker stages and burst-flushes them (single queue so the stream is
// totally ordered).
func TestTxFlushOrdering(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 1024, Queues: 1})
	p1, _ := sw.Port(1)
	const n = 300
	for i := 0; i < n; i++ {
		if !p1.InjectOn(AutoQueue, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("inject %d failed", i)
		}
	}
	for processed := 0; processed < n; {
		got := sw.PollOnce(nil)
		if got == 0 {
			break
		}
		processed += got
	}
	p2, _ := sw.Port(2)
	for i := 0; i < n; i++ {
		f, ok := p2.be.(*RingBackend).TxDequeue(0)
		if !ok {
			t.Fatalf("tx queue ran dry at %d", i)
		}
		if f[0] != byte(i) || f[1] != byte(i>>8) {
			t.Fatalf("tx order broken at %d: got %d,%d", i, f[0], f[1])
		}
	}
}

// TestRSSSteeringSpreadsAcrossQueues injects many distinct 5-tuple flows
// into ONE port and asserts the RSS hash spreads them over multiple RX
// queues — the property that lets one hot port scale across workers.
func TestRSSSteeringSpreadsAcrossQueues(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 4096, Queues: 4})
	p1, _ := sw.Port(1)
	bld := pkt.NewBuilder(128)
	for i := 0; i < 128; i++ {
		f := pkt.Clone(bld.TCPPacket(pkt.EthernetOpts{},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, 0, byte(i)), Dst: pkt.IPv4FromOctets(192, 168, 0, 1)},
			pkt.L4Opts{Src: uint16(1000 + i), Dst: 80}))
		if !p1.InjectOn(AutoQueue, f) {
			t.Fatalf("inject %d failed", i)
		}
	}
	busy := 0
	for q := 0; q < p1.nq; q++ {
		if p1.RxQueueLen(q) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("RSS steered 128 flows onto %d of %d queues", busy, p1.nq)
	}
	// Both directions of a flow must share a queue.
	fwd := pkt.Clone(bld.TCPPacket(pkt.EthernetOpts{},
		pkt.IPv4Opts{Src: pkt.IPv4FromOctets(1, 1, 1, 1), Dst: pkt.IPv4FromOctets(2, 2, 2, 2)},
		pkt.L4Opts{Src: 1111, Dst: 2222}))
	rev := pkt.Clone(bld.TCPPacket(pkt.EthernetOpts{},
		pkt.IPv4Opts{Src: pkt.IPv4FromOctets(2, 2, 2, 2), Dst: pkt.IPv4FromOctets(1, 1, 1, 1)},
		pkt.L4Opts{Src: 2222, Dst: 1111}))
	qf := pkt.RSSHash(fwd) % uint32(p1.nq)
	qr := pkt.RSSHash(rev) % uint32(p1.nq)
	if qf != qr {
		t.Fatalf("flow directions split across queues %d and %d", qf, qr)
	}
}

// TestWorkerStatsAggregation checks that the padded per-worker counters fold
// into the same aggregate totals the shared counters used to produce.
func TestWorkerStatsAggregation(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 4096, Queues: 4})
	stop := sw.RunWorkers(4)
	p1, _ := sw.Port(1)
	bld := pkt.NewBuilder(128)
	const n = 1000
	injected := 0
	for i := 0; i < n; i++ {
		f := pkt.Clone(bld.UDPPacket(pkt.EthernetOpts{},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, byte(i>>8), byte(i)), Dst: pkt.IPv4FromOctets(10, 9, 9, 9)},
			pkt.L4Opts{Src: uint16(i), Dst: 53}))
		for !p1.InjectOn(AutoQueue, f) {
			for _, port := range sw.Ports() {
				port.DrainTx()
			}
			time.Sleep(50 * time.Microsecond)
		}
		injected++
	}
	deadline := time.Now().Add(20 * time.Second)
	for sw.Stats().Processed < uint64(injected) && time.Now().Before(deadline) {
		for _, port := range sw.Ports() {
			port.DrainTx()
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	st := sw.Stats()
	if st.Processed != uint64(injected) || st.Forwarded != uint64(injected) {
		t.Fatalf("aggregated stats %+v, want processed=forwarded=%d", st, injected)
	}
}

// TestWorkerCounterTableCoversWorkerStats is the declare-once guard: every
// uint64 field of WorkerStats is exactly one WorkerCounterTable row, or one
// of the fields the fold reads from elsewhere — and every row's counter
// reaches its field through the one fold Stats() runs.
func TestWorkerCounterTableCoversWorkerStats(t *testing.T) {
	notWorker := map[string]bool{"Punts": true, "PuntDrops": true, "PortsDown": true, "PortsFlapping": true}
	var st WorkerStats
	sv := reflect.ValueOf(&st).Elem()
	rowOf := map[uintptr]counter{}
	for i, row := range WorkerCounterTable {
		addr := reflect.ValueOf(row.Field(&st)).Pointer()
		if prev, dup := rowOf[addr]; dup {
			t.Fatalf("rows %d and %d fold into the same field", prev, i)
		}
		rowOf[addr] = counter(i)
		if row.Metric == "" || row.Help == "" {
			t.Fatalf("row %d has no metric name or help", i)
		}
	}
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("WorkerStats.%s is %s, not a counter", f.Name, f.Type)
		}
		_, isRow := rowOf[sv.Field(i).Addr().Pointer()]
		if isRow == notWorker[f.Name] {
			t.Fatalf("WorkerStats.%s: table row %v, non-worker field %v — want exactly one", f.Name, isRow, notWorker[f.Name])
		}
	}
	if got, want := len(rowOf)+len(notWorker), sv.NumField(); got != want {
		t.Fatalf("%d rows + %d non-worker fields != %d WorkerStats fields", len(rowOf), len(notWorker), want)
	}

	// Each row's slot folds into its own field, live and retired alike.
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 1, Queues: 1})
	live, retired := sw.registerCounters(), sw.registerCounters()
	var tal stageTallies
	for i := range tal {
		tal[i] = uint64(i + 1)
	}
	live.publish(&tal)
	retired.publish(&tal)
	sw.retireCounters(retired)
	got := sw.Stats()
	for i, row := range WorkerCounterTable {
		if v := *row.Field(&got); v != 2*uint64(i+1) {
			t.Fatalf("%s folded to %d, want %d", row.Metric, v, 2*(i+1))
		}
	}
}

// TestSwitchCloseRacesRunningWorkers closes a switch while its workers are
// mid-traffic, twice concurrently: every backend must be released exactly
// once (the Port's closed latch, not worker quiescence, guarantees it),
// bursts after Close return 0 instead of panicking, and the verdict
// accounting stays whole — every processed frame is still counted.
func TestSwitchCloseRacesRunningWorkers(t *testing.T) {
	backends := make([]PortBackend, 3)
	counters := make([]*closeCountBackend, 3)
	for i := range backends {
		ccb := &closeCountBackend{PortBackend: NewRingBackend(1024, 2)}
		counters[i], backends[i] = ccb, ccb
	}
	sw := NewSwitchWithConfig(DatapathFunc(dropDatapath), SwitchConfig{Backends: backends})
	stop := sw.RunWorkers(2)

	// Feed traffic from a producer goroutine while two goroutines race
	// Close against the polling workers.
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		frame := make([]byte, pkt.MinPacketLen)
		for i := 0; i < 5000; i++ {
			p, _ := sw.Port(uint32(i%3 + 1))
			if p.Closed() {
				return
			}
			p.InjectOn(AutoQueue, frame)
		}
	}()
	time.Sleep(2 * time.Millisecond) // let traffic start flowing
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sw.Close(); err != nil {
				t.Errorf("racing Close: %v", err)
			}
		}()
	}
	wg.Wait()
	<-prodDone
	stop()

	for i, ccb := range counters {
		if n := ccb.closes.Load(); n != 1 {
			t.Fatalf("backend %d closed %d times, want exactly 1", i, n)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("re-Close after the race: %v", err)
	}
	for i, ccb := range counters {
		if n := ccb.closes.Load(); n != 1 {
			t.Fatalf("re-Close reached backend %d (%d calls)", i, n)
		}
	}
	// No accounting holes: with a dropping datapath every frame that was
	// processed must be accounted as dropped — nothing vanished in the race.
	st := sw.Stats()
	if st.Processed != st.Dropped {
		t.Fatalf("accounting hole across the close race: %+v", st)
	}
}

// TestWorkerStatsCheckInvariants exercises the canonical counter-identity
// checker over synthetic folds: the documented identities must hold exactly,
// and every single-counter perturbation must be caught.
func TestWorkerStatsCheckInvariants(t *testing.T) {
	good := WorkerStats{
		Processed: 1000, Forwarded: 900, Dropped: 50, ToCtrl: 50,
		Punts: 30, PuntDrops: 10, PuntSuppressed: 5, PuntFiltered: 5,
	}
	if err := good.CheckInvariants(true); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	// Each perturbation breaks exactly one identity.
	cases := map[string]func(*WorkerStats){
		"punt":          func(st *WorkerStats) { st.Punts++ },
		"punts-unarmed": func(st *WorkerStats) {}, // checked with armed=false below
	}
	for name, mutate := range cases {
		st := good
		mutate(&st)
		armed := name != "punts-unarmed"
		if err := st.CheckInvariants(armed); err == nil {
			t.Fatalf("%s: inconsistent stats accepted: %+v (armed=%v)", name, st, armed)
		}
	}
	// A disengaged slow path is not checked: zero punt counters pass with
	// the rings unarmed.
	quiet := WorkerStats{Processed: 10, Forwarded: 10}
	if err := quiet.CheckInvariants(false); err != nil {
		t.Fatalf("quiet stats rejected: %v", err)
	}
}
