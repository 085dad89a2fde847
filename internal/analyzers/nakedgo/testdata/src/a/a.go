// Fixture for the nakedgo analyzer: every goroutine spawned in production
// code must recover panics itself or route through a panic-safe helper.
package a

// trapped mirrors internal/lattice's runTrapped: a helper whose top level
// defers a recover, so goroutines may route through it.
func trapped(body func()) {
	defer func() {
		if rec := recover(); rec != nil {
			_ = rec
		}
	}()
	body()
}

type engine struct{}

// worker is a panic-safe method: its own top-level deferred recover makes
// spawning it directly acceptable.
func (e *engine) worker(wk int) {
	defer func() {
		if rec := recover(); rec != nil {
			_ = rec
		}
	}()
	_ = wk
}

// drain has no recover anywhere: spawning it naked must fire.
func (e *engine) drain() {}

func cleanup() {}

func spawnSafe() {
	go trapped(func() {})              // ok: names a panic-safe helper
	go func() { trapped(func() {}) }() // ok: routes through the helper
	go func() {                        // ok: own top-level defer-recover
		defer func() {
			if rec := recover(); rec != nil {
				_ = rec
			}
		}()
		cleanup()
	}()

	e := &engine{}
	go e.worker(1) // ok: panic-safe method

	safeRun := func() {
		defer func() {
			_ = recover()
		}()
		cleanup()
	}
	go func() { safeRun() }() // ok: local panic-safe closure
	go safeRun()              // ok: spawning the closure directly

	var wg struct{ done func() }
	wg.done = cleanup
	go func() { // ok: helper call after an unrelated defer, the engine idiom
		defer wg.done()
		trapped(cleanup)
	}()
}

func spawnNaked() {
	go func() {}() // want `naked goroutine`

	e := &engine{}
	go e.drain() // want `naked goroutine`
	go cleanup() // want `naked goroutine`
	go func() {  // want `naked goroutine`
		defer cleanup() // deferring a non-safe function does not contain panics
		panic("boom")
	}()

	deepRecover := func() {
		func() {
			defer func() { _ = recover() }()
		}()
	}
	go deepRecover() // want `naked goroutine`
}

func allowlisted() {
	//lint:allow nakedgo fixture demonstrates the escape hatch
	go cleanup()
}
