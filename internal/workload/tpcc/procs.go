package tpcc

import (
	"fmt"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// Procedure names. NewOrder is registered once per cart size because the
// stored-procedure model is static; NewOrderProc(n) returns the name.
const (
	ProcPayment     = "tpcc.payment"
	ProcOrderStatus = "tpcc.orderstatus"
	ProcDelivery    = "tpcc.delivery"
	ProcStockLevel  = "tpcc.stocklevel"
)

// NewOrderProc returns the registered name of the NewOrder variant with n
// order lines.
func NewOrderProc(n int) string { return fmt.Sprintf("tpcc.neworder.%d", n) }

// RegisterAll registers every TPC-C procedure in the registry.
func RegisterAll(reg *txn.Registry) error {
	for n := MinOrderLines; n <= MaxOrderLines; n++ {
		if err := reg.Register(newOrderProcedure(n)); err != nil {
			return err
		}
	}
	for _, p := range []*txn.Procedure{
		paymentProcedure(),
		orderStatusProcedure(),
		deliveryProcedure(),
		stockLevelProcedure(),
	} {
		if err := reg.Register(p); err != nil {
			return err
		}
	}
	return nil
}

// newOrderProcedure builds the NewOrder variant with n lines.
//
// args: [0]=w [1]=d [2]=c, then per line i: [3+3i]=item [4+3i]=supplyW
// [5+3i]=qty.
//
// Ops: 0 read warehouse (S) · 1 update district (X, hot: next_o_id++) ·
// 2 read customer (S) · 3..2+n update stock (X) · 3+n insert order ·
// 4+n insert new-order · 5+n.. insert order lines. The inserts' keys
// depend on the district read (pk-dep), and the inserts are co-located
// with the district by the warehouse partitioner — exactly the shape that
// lets Chiller's analysis put the district increment plus all inserts in
// the inner region.
func newOrderProcedure(n int) *txn.Procedure {
	ops := make([]txn.OpSpec, 0, 5+2*n)

	// 0: warehouse read (w_tax).
	ops = append(ops, txn.OpSpec{
		ID: 0, Type: txn.OpRead, Table: TableWarehouse,
		Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
			return WarehouseKey(int(args[0])), true
		},
	})
	// 1: district update (read d_next_o_id and d_tax, increment).
	ops = append(ops, txn.OpSpec{
		ID: 1, Type: txn.OpUpdate, Table: TableDistrict,
		Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
			return DistrictKey(int(args[0]), int(args[1])), true
		},
		Mutate: func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
			d := DecodeDistrict(old)
			d.NextOID++
			return d.Encode(), nil
		},
	})
	// 2: customer read (discount).
	ops = append(ops, txn.OpSpec{
		ID: 2, Type: txn.OpRead, Table: TableCustomer,
		Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
			return CustomerKey(int(args[0]), int(args[1]), int(args[2])), true
		},
	})
	// 3..2+n: stock updates.
	for i := 0; i < n; i++ {
		i := i
		ops = append(ops, txn.OpSpec{
			ID: 3 + i, Type: txn.OpUpdate, Table: TableStock,
			Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
				return StockKey(int(args[4+3*i]), int(args[3+3*i])), true
			},
			Mutate: func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
				s := DecodeStock(old)
				q := args[5+3*i]
				s.Quantity -= q
				if s.Quantity < 10 {
					s.Quantity += 91
				}
				s.YTD += q
				s.OrderCnt++
				if args[4+3*i] != args[0] {
					s.RemoteCnt++
				}
				return s.Encode(), nil
			},
		})
	}
	orderKeyFn := func(args txn.Args, reads txn.ReadSet) (storage.Key, bool) {
		dv, ok := reads[1]
		if !ok || len(dv) == 0 {
			return 0, false
		}
		oid := DecodeDistrict(dv).NextOID
		return OrderKey(int(args[0]), int(args[1]), int(oid)), true
	}
	districtPartKey := func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
		return DistrictKey(int(args[0]), int(args[1])), true
	}
	// 3+n: order insert.
	ops = append(ops, txn.OpSpec{
		ID: 3 + n, Type: txn.OpInsert, Table: TableOrder,
		Key: orderKeyFn, PKDeps: []int{1},
		PartKey: districtPartKey, PartTable: TableDistrict,
		Mutate: func(_ []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
			return Order{CustomerID: args[2], OLCnt: int64(n)}.Encode(), nil
		},
	})
	// 4+n: new-order marker insert.
	ops = append(ops, txn.OpSpec{
		ID: 4 + n, Type: txn.OpInsert, Table: TableNewOrder,
		Key: orderKeyFn, PKDeps: []int{1},
		PartKey: districtPartKey, PartTable: TableDistrict,
		Mutate: func(_ []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
			return []byte{1}, nil
		},
	})
	// 5+n..4+2n: order-line inserts. Amount uses the stock read and the
	// warehouse/district taxes plus customer discount — v-deps, which do
	// not restrict ordering (§3.2).
	for i := 0; i < n; i++ {
		i := i
		ops = append(ops, txn.OpSpec{
			ID: 5 + n + i, Type: txn.OpInsert, Table: TableOrderLine,
			Key: func(args txn.Args, reads txn.ReadSet) (storage.Key, bool) {
				ok, okOK := orderKeyFn(args, reads)
				if !okOK {
					return 0, false
				}
				return OrderLineKey(ok, i), true
			},
			PKDeps:  []int{1},
			VDeps:   []int{0, 2, 3 + i},
			PartKey: districtPartKey, PartTable: TableDistrict,
			Mutate: func(_ []byte, args txn.Args, reads txn.ReadSet) ([]byte, error) {
				item := args[3+3*i]
				qty := args[5+3*i]
				amount := qty * ItemPrice(item)
				// Apply taxes and discount when available (10000 = 100%).
				wTax := DecodeWarehouse(reads[0]).Tax
				cDisc := DecodeCustomer(reads[2]).Discount
				amount = amount * (10000 + wTax) / 10000 * (10000 - cDisc) / 10000
				return OrderLine{
					ItemID: item, SupplyW: args[4+3*i], Quantity: qty, Amount: amount,
				}.Encode(), nil
			},
		})
	}
	return &txn.Procedure{Name: NewOrderProc(n), Ops: ops}
}

// paymentProcedure: args [0]=w [1]=d [2]=cw [3]=cd [4]=c [5]=amount
// [6]=history seq.
//
// Ops: 0 update warehouse ytd (X — the severe contention point §7.3.2) ·
// 1 update district ytd (X) · 2 update customer (possibly remote) ·
// 3 insert history.
func paymentProcedure() *txn.Procedure {
	return &txn.Procedure{
		Name: ProcPayment,
		Ops: []txn.OpSpec{
			{
				ID: 0, Type: txn.OpUpdate, Table: TableWarehouse,
				Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return WarehouseKey(int(args[0])), true
				},
				Mutate: func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
					w := DecodeWarehouse(old)
					w.YTD += args[5]
					return w.Encode(), nil
				},
			},
			{
				ID: 1, Type: txn.OpUpdate, Table: TableDistrict,
				Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return DistrictKey(int(args[0]), int(args[1])), true
				},
				Mutate: func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
					d := DecodeDistrict(old)
					d.YTD += args[5]
					return d.Encode(), nil
				},
			},
			{
				ID: 2, Type: txn.OpUpdate, Table: TableCustomer,
				Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return CustomerKey(int(args[2]), int(args[3]), int(args[4])), true
				},
				Mutate: func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
					c := DecodeCustomer(old)
					c.Balance -= args[5]
					c.YTDPayment += args[5]
					c.PaymentCnt++
					return c.Encode(), nil
				},
			},
			{
				ID: 3, Type: txn.OpInsert, Table: TableHistory,
				Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return HistoryKey(int(args[0]), uint64(args[6])), true
				},
				Mutate: func(_ []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
					out := make([]byte, 8)
					for i := 0; i < 8; i++ {
						out[i] = byte(args[5] >> (8 * i))
					}
					return out, nil
				},
			},
		},
	}
}

// orderStatusProcedure: args [0]=w [1]=d [2]=c. Read-only: district,
// customer, the district's latest order, and its first line.
func orderStatusProcedure() *txn.Procedure {
	lastOrderKey := func(args txn.Args, reads txn.ReadSet) (storage.Key, bool) {
		dv, ok := reads[0]
		if !ok || len(dv) == 0 {
			return 0, false
		}
		oid := DecodeDistrict(dv).NextOID - 1
		if oid < 0 {
			oid = 0
		}
		return OrderKey(int(args[0]), int(args[1]), int(oid)), true
	}
	return &txn.Procedure{
		Name: ProcOrderStatus,
		Ops: []txn.OpSpec{
			{
				ID: 0, Type: txn.OpRead, Table: TableDistrict,
				Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return DistrictKey(int(args[0]), int(args[1])), true
				},
			},
			{
				ID: 1, Type: txn.OpRead, Table: TableCustomer,
				Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return CustomerKey(int(args[0]), int(args[1]), int(args[2])), true
				},
			},
			{
				ID: 2, Type: txn.OpRead, Table: TableOrder,
				Key: lastOrderKey, PKDeps: []int{0},
				PartKey: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return DistrictKey(int(args[0]), int(args[1])), true
				},
				PartTable: TableDistrict,
			},
			{
				ID: 3, Type: txn.OpRead, Table: TableOrderLine,
				Key: func(args txn.Args, reads txn.ReadSet) (storage.Key, bool) {
					ok, okOK := lastOrderKey(args, reads)
					if !okOK {
						return 0, false
					}
					return OrderLineKey(ok, 0), true
				},
				PKDeps: []int{0},
				PartKey: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
					return DistrictKey(int(args[0]), int(args[1])), true
				},
				PartTable: TableDistrict,
			},
		},
	}
}

// deliveryProcedure: args [0]=w [1]=d [2]=carrier. One district per
// transaction: read district, stamp the latest order's carrier, credit
// that order's customer — a district→order→customer pk-dependency chain.
func deliveryProcedure() *txn.Procedure {
	lastOrderKey := func(args txn.Args, reads txn.ReadSet) (storage.Key, bool) {
		dv, ok := reads[0]
		if !ok || len(dv) == 0 {
			return 0, false
		}
		oid := DecodeDistrict(dv).NextOID - 1
		if oid < 0 {
			oid = 0
		}
		return OrderKey(int(args[0]), int(args[1]), int(oid)), true
	}
	districtPartKey := func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
		return DistrictKey(int(args[0]), int(args[1])), true
	}
	return &txn.Procedure{
		Name: ProcDelivery,
		Ops: []txn.OpSpec{
			{
				ID: 0, Type: txn.OpRead, Table: TableDistrict,
				Key: districtPartKey,
			},
			{
				ID: 1, Type: txn.OpUpdate, Table: TableOrder,
				Key: lastOrderKey, PKDeps: []int{0},
				PartKey: districtPartKey, PartTable: TableDistrict,
				Mutate: func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
					o := DecodeOrder(old)
					o.CarrierID = args[2]
					return o.Encode(), nil
				},
			},
			{
				ID: 2, Type: txn.OpUpdate, Table: TableCustomer,
				Key: func(args txn.Args, reads txn.ReadSet) (storage.Key, bool) {
					ov, ok := reads[1]
					if !ok || len(ov) == 0 {
						return 0, false
					}
					c := DecodeOrder(ov).CustomerID
					return CustomerKey(int(args[0]), int(args[1]), int(c)), true
				},
				PKDeps:  []int{1},
				PartKey: districtPartKey, PartTable: TableDistrict,
				Mutate: func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
					c := DecodeCustomer(old)
					c.Balance += 100 // delivery credit (fixed)
					return c.Encode(), nil
				},
			},
		},
	}
}

// stockLevelProcedure: args [0]=w [1]=d [2]=threshold [3..12]=item ids.
// Read-only: district plus 10 stock records; the client counts how many
// fall below the threshold.
func stockLevelProcedure() *txn.Procedure {
	ops := []txn.OpSpec{
		{
			ID: 0, Type: txn.OpRead, Table: TableDistrict,
			Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
				return DistrictKey(int(args[0]), int(args[1])), true
			},
		},
	}
	for i := 0; i < 10; i++ {
		i := i
		ops = append(ops, txn.OpSpec{
			ID: 1 + i, Type: txn.OpRead, Table: TableStock,
			Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
				return StockKey(int(args[0]), int(args[3+i])), true
			},
		})
	}
	return &txn.Procedure{Name: ProcStockLevel, Ops: ops}
}

// CountBelowThreshold evaluates StockLevel's client-side aggregation over
// a committed result.
func CountBelowThreshold(reads txn.ReadSet, threshold int64) int {
	count := 0
	for i := 1; i <= 10; i++ {
		if v, ok := reads[i]; ok && DecodeStock(v).Quantity < threshold {
			count++
		}
	}
	return count
}
