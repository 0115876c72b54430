// Fixture for the ctxfirst analyzer. The context and testing imports
// resolve to the hermetic stand-in packages beside this fixture.
package a

import (
	"context"
	"testing"
)

func use(ctx context.Context) {}

// Rule 1: ctx first.

func Good(ctx context.Context, n int) { use(ctx) }

func helper(t *testing.T, ctx context.Context) { use(ctx) } // ok: testing.T may lead

func tbHelper(tb testing.TB, ctx context.Context) { use(ctx) } // ok: testing.TB may lead

func Bad(n int, ctx context.Context) { use(ctx) } // want `context.Context is parameter 2`

var _ = func(name string, ctx context.Context) { use(ctx) } // want `context.Context is parameter 2`

func worse(t *testing.T, n int, ctx context.Context) { use(ctx) } // want `context.Context is parameter 3`

// Rule 2: exported ctx-less functions must not bake in a root context.

func Exported() {
	use(context.Background()) // want `bakes context.Background`
}

func ExportedVia() {
	ctx := context.Background() // want `bakes context.Background`
	use(ctx)
}

// A Deprecated: doc comment exempts nothing: rule 2 still applies.
//
// Deprecated: use Good, which threads the caller's ctx.
func ExportedDeprecated() {
	use(context.Background()) // want `bakes context.Background`
}

func unexported() {
	use(context.Background()) // ok: rule 2 binds the exported surface only
}

// Rule 3: a function holding a ctx must not detach callees from it.

func WithCtx(ctx context.Context) {
	use(context.TODO())                                         // want `detaching it from cancellation`
	sub, cancel := context.WithTimeout(context.Background(), 5) // want `detaching it from cancellation`
	cancel()
	use(sub)
}

func normalize(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background() // ok: nil normalization is an assignment
	}
	use(ctx)
}

func shutdown(ctx context.Context) {
	<-ctx.Done()
	//lint:allow ctxfirst graceful shutdown must outlive the cancelled request ctx
	fresh, cancel := context.WithTimeout(context.Background(), 5)
	cancel()
	use(fresh)
}
