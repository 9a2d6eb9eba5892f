package core

import "apisense/internal/apierr"

// ErrNoStrategy is returned by PublishContext when no candidate strategy
// satisfies the configured privacy floor; the caller should either relax
// the floor, extend the portfolio, or refuse to publish. Coded
// "core.no_strategy" (category conflict): surfaced to HTTP callers by
// embedders with status 409.
var ErrNoStrategy = apierr.New("core.no_strategy", apierr.Conflict, "core: no strategy meets the privacy floor")
