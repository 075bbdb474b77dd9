package cache

import (
	"reflect"
	"testing"
)

// TestAddRepeatsCoversEveryField sets one Stats field at a time and
// checks that addRepeats scales exactly that field, so a counter added
// to Stats later cannot be left unscaled by the replay's repeat
// fast-forward.
func TestAddRepeatsCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("Stats.%s is %s; addRepeats scales uint64 counters only", f.Name, f.Type)
		}
		var s, mark, want Stats
		reflect.ValueOf(&mark).Elem().Field(i).SetUint(2)
		reflect.ValueOf(&s).Elem().Field(i).SetUint(5)
		reflect.ValueOf(&want).Elem().Field(i).SetUint(5 + 3*(5-2))
		s.addRepeats(&mark, 3)
		if s != want {
			t.Errorf("Stats.%s: addRepeats gave %+v, want %+v", f.Name, s, want)
		}
	}
}

// A skipped copy must leave the engine exactly as replaying it would,
// down to the clock that LRU victims are chosen by.
func TestSkipRepeatsMatchesReplay(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, Ways: 4, LineBytes: 32, Policy: LRU}
	body := []uint32{0x100, 0x104, 0x200, 0x300, 0x304, 0x308, 0x100}
	replay := func(e FetchEngine, copies int) {
		for range copies {
			for _, a := range body {
				e.Fetch(a, false)
			}
		}
	}
	type skipper interface {
		FetchEngine
		Mark()
		SkipRepeats(k uint64) bool
	}
	for _, mk := range []func() skipper{
		func() skipper {
			return must(NewWayPlacement(cfg, WPOracleFunc(func(a uint32) bool { return a < 0x200 })))
		},
		func() skipper { return must(NewWayMemoization(cfg)) },
	} {
		fast, full := mk(), mk()
		replay(fast, 2)
		fast.Mark()
		replay(fast, 1)
		if !fast.SkipRepeats(5) {
			t.Fatalf("%s refused to skip a warm loop", fast.Name())
		}
		replay(fast, 1)
		replay(full, 9)
		if !reflect.DeepEqual(fast.Cache(), full.Cache()) {
			t.Errorf("%s: skipped %+v, want %+v", fast.Name(), fast.Cache().Stats, full.Cache().Stats)
		}

		// A copy that fills refuses.
		cold := mk()
		cold.Mark()
		replay(cold, 1)
		if cold.SkipRepeats(1) {
			t.Errorf("%s skipped a copy that missed", cold.Name())
		}
	}
}
