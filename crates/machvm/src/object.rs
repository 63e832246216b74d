//! VM objects: the kernel-side representation of memory, with shadow and
//! copy links implementing Mach's delayed-copy strategies (§2.2 of the
//! paper).

use std::collections::BTreeSet;

use svmsim::Time;

use crate::ids::{Access, MemObjId, PageIdx, VmObjId};
use crate::pagedata::PageData;

/// What backs a VM object when its pages are not resident.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Zero-filled on first touch; evicted pages go to the default pager.
    Anonymous,
    /// Backed by an external memory object (a pager task, possibly behind
    /// an XMM or ASVM layer).
    External(MemObjId),
}

/// Which delayed-copy strategy applies when this object is copied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyStrategy {
    /// Symmetric: source and copy keep referencing the object; whichever
    /// side writes first gets a fresh shadow object (FIGURE 2). The source
    /// object's contents freeze. Used when changes need not reach a pager.
    Symmetric,
    /// Asymmetric: a copy object is created eagerly and linked with
    /// copy/shadow links; pages are pushed to it before modification and
    /// pulled through it on access (FIGURE 3). Used for externally managed
    /// memory such as mapped files.
    Asymmetric,
}

/// One page resident in the VM page cache.
#[derive(Clone, Debug)]
pub struct ResidentPage {
    /// Contents.
    pub data: PageData,
    /// Maximum access the kernel may grant on this page (the manager's
    /// lock value for external objects).
    pub prot: Access,
    /// Modified since it was supplied / created.
    pub dirty: bool,
    /// A protocol operation (fault completion, push, eviction) is in
    /// flight; the page must not be evicted or flushed underneath it.
    pub busy: bool,
    /// Last access time, for LRU victim selection.
    pub last_use: Time,
}

impl ResidentPage {
    /// A freshly supplied page.
    pub fn new(data: PageData, prot: Access, now: Time) -> ResidentPage {
        ResidentPage {
            data,
            prot,
            dirty: false,
            busy: false,
            last_use: now,
        }
    }
}

/// The resident-page table of one VM object: dense storage indexed by
/// page number.
///
/// This sits on the hottest path in the simulator — every Touch/Read/
/// Write step walks a shadow chain doing one lookup per object — so the
/// page record lives in a flat slot array (`O(1)` index instead of a
/// B-tree descent). Iteration order is ascending page index, exactly the
/// order the previous `BTreeMap<PageIdx, ResidentPage>` iterated in, so
/// the swap is invisible to every deterministic consumer.
///
/// The array covers a window `base..base + slots.len()` that starts at
/// the lowest page inserted since the table was last empty, so memory is
/// proportional to the resident span, not to the highest page index: a
/// node caching a few pages high in a large object pays for those pages
/// only. Pages outside the window are simply not resident. Inserting
/// below the window grows it downward by at least its current length, so
/// a descending run of inserts stays amortized `O(1)` per page.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    /// Page number held by `slots[0]`.
    base: u32,
    slots: Vec<Option<ResidentPage>>,
    resident: usize,
}

impl PageTable {
    /// An empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// The slot index of `page`, if it lies at or above the window start.
    #[inline]
    fn slot(&self, page: &PageIdx) -> Option<usize> {
        page.0.checked_sub(self.base).map(|i| i as usize)
    }

    /// The resident page record, if the page is resident.
    #[inline]
    pub fn get(&self, page: &PageIdx) -> Option<&ResidentPage> {
        self.slots.get(self.slot(page)?)?.as_ref()
    }

    /// Mutable access to the resident page record.
    #[inline]
    pub fn get_mut(&mut self, page: &PageIdx) -> Option<&mut ResidentPage> {
        let i = self.slot(page)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// True if `page` is resident.
    #[inline]
    pub fn contains_key(&self, page: &PageIdx) -> bool {
        self.get(page).is_some()
    }

    /// Makes `page` resident, returning the previous record if any.
    pub fn insert(&mut self, page: PageIdx, rp: ResidentPage) -> Option<ResidentPage> {
        if self.resident == 0 {
            self.slots.clear();
            self.base = page.0;
        } else if page.0 < self.base {
            let grow = (self.base - page.0)
                .max(self.slots.len() as u32)
                .min(self.base);
            self.slots
                .splice(0..0, std::iter::repeat_with(|| None).take(grow as usize));
            self.base -= grow;
        }
        let i = (page.0 - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(rp);
        if prev.is_none() {
            self.resident += 1;
        }
        prev
    }

    /// Removes `page`, returning its record if it was resident.
    pub fn remove(&mut self, page: &PageIdx) -> Option<ResidentPage> {
        let i = self.slot(page)?;
        let prev = self.slots.get_mut(i)?.take();
        if prev.is_some() {
            self.resident -= 1;
        }
        prev
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Drops every resident page.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.resident = 0;
    }

    /// Resident pages in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageIdx, &ResidentPage)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|rp| (PageIdx(base + i as u32), rp)))
    }

    /// Resident page records in ascending page order.
    pub fn values(&self) -> impl Iterator<Item = &ResidentPage> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Mutable records in ascending page order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut ResidentPage> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }
}

/// A kernel VM object.
#[derive(Clone, Debug)]
pub struct VmObject {
    /// This object's id within its node.
    pub id: VmObjId,
    /// Object length in pages.
    pub size_pages: u32,
    /// Resident pages.
    pub pages: PageTable,
    /// Backing store.
    pub backing: Backing,
    /// Copy strategy used when this object is delayed-copied.
    pub copy_strategy: CopyStrategy,
    /// Shadow link: where to look for pages this object lacks (toward the
    /// copy's source).
    pub shadow: Option<VmObjId>,
    /// Copy link: the most recent copy object (asymmetric strategy); pushes
    /// target it.
    pub copy: Option<VmObjId>,
    /// Reference count from address-map entries and child shadow links.
    pub refs: u32,
    /// Pages evicted to the default pager (anonymous objects only): the
    /// kernel must re-request them instead of zero-filling.
    pub paged_out: BTreeSet<PageIdx>,
}

impl VmObject {
    /// Creates an object with no pages resident.
    pub fn new(id: VmObjId, size_pages: u32, backing: Backing) -> VmObject {
        let copy_strategy = match backing {
            Backing::Anonymous => CopyStrategy::Symmetric,
            Backing::External(_) => CopyStrategy::Asymmetric,
        };
        VmObject {
            id,
            size_pages,
            pages: PageTable::new(),
            backing,
            copy_strategy,
            shadow: None,
            copy: None,
            refs: 0,
            paged_out: BTreeSet::new(),
        }
    }

    /// The external memory object this VM object represents, if any.
    pub fn mem_obj(&self) -> Option<MemObjId> {
        match self.backing {
            Backing::External(m) => Some(m),
            Backing::Anonymous => None,
        }
    }

    /// True if `page` is resident.
    pub fn resident(&self, page: PageIdx) -> bool {
        self.pages.contains_key(&page)
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.pages.len()
    }

    /// Write-protects every resident page (used when a delayed copy is
    /// created, so the next write faults and triggers a push).
    pub fn write_protect_all(&mut self) -> u32 {
        let mut n = 0;
        for rp in self.pages.values_mut() {
            if rp.prot == Access::Write {
                rp.prot = Access::Read;
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_follows_backing() {
        let a = VmObject::new(VmObjId(1), 4, Backing::Anonymous);
        assert_eq!(a.copy_strategy, CopyStrategy::Symmetric);
        let e = VmObject::new(VmObjId(2), 4, Backing::External(MemObjId(9)));
        assert_eq!(e.copy_strategy, CopyStrategy::Asymmetric);
        assert_eq!(e.mem_obj(), Some(MemObjId(9)));
        assert_eq!(a.mem_obj(), None);
    }

    #[test]
    fn write_protect_counts_downgrades() {
        let mut o = VmObject::new(VmObjId(1), 4, Backing::Anonymous);
        o.pages.insert(
            PageIdx(0),
            ResidentPage::new(PageData::Zero, Access::Write, Time::ZERO),
        );
        o.pages.insert(
            PageIdx(1),
            ResidentPage::new(PageData::Zero, Access::Read, Time::ZERO),
        );
        assert_eq!(o.write_protect_all(), 1);
        assert!(o.pages.values().all(|p| p.prot == Access::Read));
    }

    fn page(stamp: u64) -> ResidentPage {
        ResidentPage::new(PageData::Zero, Access::Read, Time::from_nanos(stamp))
    }

    fn listing(t: &PageTable) -> Vec<(u32, u64)> {
        t.iter()
            .map(|(p, rp)| (p.0, rp.last_use.as_nanos()))
            .collect()
    }

    #[test]
    fn page_table_window_starts_at_first_insert() {
        let mut t = PageTable::new();
        assert_eq!(t.insert(PageIdx(1000), page(1)).map(|_| ()), None);
        assert_eq!(t.insert(PageIdx(1003), page(2)).map(|_| ()), None);
        assert_eq!(t.slots.len(), 4, "window spans 1000..=1003 only");
        assert_eq!(listing(&t), vec![(1000, 1), (1003, 2)]);
    }

    #[test]
    fn page_table_insert_below_base_keeps_ascending_order() {
        let mut t = PageTable::new();
        t.insert(PageIdx(50), page(1));
        t.insert(PageIdx(52), page(2));
        t.insert(PageIdx(48), page(3));
        t.insert(PageIdx(10), page(4));
        assert_eq!(t.len(), 4);
        assert_eq!(listing(&t), vec![(10, 4), (48, 3), (50, 1), (52, 2)]);
        let stamps: Vec<u64> = t.values().map(|rp| rp.last_use.as_nanos()).collect();
        assert_eq!(stamps, vec![4, 3, 1, 2]);
        assert_eq!(
            t.get(&PageIdx(48)).map(|rp| rp.last_use.as_nanos()),
            Some(3)
        );
        // Replacing a record returns the old one and keeps the count.
        assert_eq!(
            t.insert(PageIdx(10), page(5))
                .map(|rp| rp.last_use.as_nanos()),
            Some(4)
        );
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn page_table_descending_inserts_grow_geometrically() {
        let mut t = PageTable::new();
        for p in (0..64).rev() {
            t.insert(PageIdx(p + 100), page(p as u64));
        }
        assert_eq!(t.len(), 64);
        assert!(t.base <= 100 && t.slots.len() <= 2 * 64 + 1);
        let pages: Vec<u32> = t.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pages, (100..164).collect::<Vec<_>>());
    }

    #[test]
    fn page_table_lookups_outside_the_window_miss() {
        let mut t = PageTable::new();
        t.insert(PageIdx(20), page(1));
        t.insert(PageIdx(22), page(2));
        for p in [0, 19, 21, 23, u32::MAX] {
            assert!(t.get(&PageIdx(p)).is_none(), "page {p}");
            assert!(t.get_mut(&PageIdx(p)).is_none(), "page {p}");
            assert!(t.remove(&PageIdx(p)).is_none(), "page {p}");
            assert!(!t.contains_key(&PageIdx(p)), "page {p}");
        }
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.remove(&PageIdx(20)).map(|rp| rp.last_use.as_nanos()),
            Some(1)
        );
        assert_eq!(t.remove(&PageIdx(20)).map(|_| ()), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn page_table_clear_then_reinsert_reanchors() {
        let mut t = PageTable::new();
        t.insert(PageIdx(500), page(1));
        t.insert(PageIdx(900), page(2));
        t.clear();
        assert!(t.is_empty());
        assert!(t.get(&PageIdx(500)).is_none());
        assert_eq!(t.iter().count(), 0);
        t.insert(PageIdx(3), page(3));
        assert_eq!(t.slots.len(), 1);
        assert_eq!(listing(&t), vec![(3, 3)]);
        // Emptying by removal re-anchors the same way.
        t.remove(&PageIdx(3));
        t.insert(PageIdx(7000), page(4));
        assert_eq!(t.slots.len(), 1);
        assert_eq!(listing(&t), vec![(7000, 4)]);
    }
}
