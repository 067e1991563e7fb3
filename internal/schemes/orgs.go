package schemes

import (
	"fmt"

	"pair/internal/dram"
	"pair/internal/spec"
)

// OrgEntry is one registered DRAM organization a spec can name.
type OrgEntry struct {
	ID          string
	Description string
	Org         dram.Organization
}

var orgRegistry = spec.Registry[*OrgEntry]{Pkg: "schemes", Kind: "organization"}

// RegisterOrg adds an organization to the registry; like Register it
// panics on duplicates since it runs from init functions.
func RegisterOrg(e OrgEntry) {
	if err := e.Org.Validate(); err != nil {
		panic(fmt.Sprintf("schemes: organization %q: %v", e.ID, err))
	}
	orgRegistry.Register(e.ID, nil, &e)
}

// OrgByID resolves a registered organization ID.
func OrgByID(id string) (dram.Organization, error) {
	e, err := orgRegistry.Get(id)
	if err != nil {
		return dram.Organization{}, err
	}
	return e.Org, nil
}

// OrgIDs returns every registered organization ID in registration order.
func OrgIDs() []string { return orgRegistry.IDs() }

// Orgs returns every registered organization entry in registration order.
func Orgs() []*OrgEntry { return orgRegistry.All() }
